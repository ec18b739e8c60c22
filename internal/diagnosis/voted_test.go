package diagnosis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bist"
	"repro/internal/bitset"
)

// candidatesVotedScan is the reference CandidatesVoted must match: every
// cell × partition is visited through groupOf and its tri-state verdict
// counted as a pass or not, instead of adding non-pass masks into
// bit-sliced counters.
func (d *Diagnoser) candidatesVotedScan(v *bist.Verdicts, k, voteK int) *bitset.Set {
	if k > len(v.Fail) {
		k = len(v.Fail)
	}
	if voteK < 1 {
		voteK = 1
	}
	cand := bitset.New(d.cfg.NumCells)
	for ci, ch := range d.cfg.Chains {
		for pos, cell := range ch.Cells {
			passes := 0
			for t := 0; t < k; t++ {
				if v.State(t, d.groupOf(ci, pos, t)) == bist.VerdictPass {
					passes++
				}
			}
			if passes < voteK {
				cand.Add(cell)
			}
		}
	}
	return cand
}

// randomVotedCase is randomPruneCase with tri-state verdicts: every
// session is independently Fail, Unknown or Pass. About one case in four
// keeps a nil Unknown table, the shape a perfect tester produces.
func randomVotedCase(rng *rand.Rand, lay layout, sh caseShape) (*Diagnoser, *bist.Verdicts, error) {
	d, v, err := randomPruneCase(rng, lay, sh)
	if err != nil {
		return nil, nil, err
	}
	triState(rng, v)
	return d, v, nil
}

// triState redraws every session of v as Fail, Unknown or Pass, keeping
// a nil Unknown table about one time in four.
func triState(rng *rand.Rand, v *bist.Verdicts) {
	withUnknown := rng.Intn(4) != 0
	if withUnknown {
		v.Unknown = make([][]bool, len(v.Fail))
	}
	for t := range v.Fail {
		if withUnknown {
			v.Unknown[t] = make([]bool, len(v.Fail[t]))
		}
		for g := range v.Fail[t] {
			switch rng.Intn(3) {
			case 0:
				v.Fail[t][g] = true
			case 1:
				v.Fail[t][g] = false
				if withUnknown {
					v.Unknown[t][g] = true
				}
			default:
				v.Fail[t][g] = false
			}
		}
	}
}

// checkVotedMatchesScan compares CandidatesVoted with the reference scan
// at one (k, voteK), twice, so state left over from the first call shows
// up.
func checkVotedMatchesScan(t *testing.T, d *Diagnoser, v *bist.Verdicts, k, voteK int, what string) {
	t.Helper()
	want := d.candidatesVotedScan(v, k, voteK)
	for call := 0; call < 2; call++ {
		if got := d.CandidatesVoted(v, k, voteK); !got.Equal(want) {
			t.Fatalf("%s k=%d voteK=%d call %d: CandidatesVoted = %v, scan = %v", what, k, voteK, call, got, want)
		}
	}
}

// TestCandidatesVotedMatchesScan runs the whole (k, voteK) grid — k in
// 0..P, voteK in −1..P+2, which includes every need ≤ 0 corner — over
// random tri-state verdicts in all three slot layouts.
func TestCandidatesVotedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, lay := range []layout{singleChain, sharedSlots, perChainSlots} {
		for i := 0; i < 200; i++ {
			sh := caseShape(rng.Intn(numShapes))
			d, v, err := randomVotedCase(rng, lay, sh)
			if err != nil {
				t.Fatal(err)
			}
			p := len(v.Fail)
			for k := 0; k <= p; k++ {
				for voteK := -1; voteK <= p+2; voteK++ {
					checkVotedMatchesScan(t, d, v, k, voteK, fmt.Sprintf("%v shape %d case %d", lay, sh, i))
				}
			}
		}
	}
}

// FuzzCandidatesVoted checks the bit-sliced CandidatesVoted against the
// cell × partition scan bit for bit. The fuzzed selectors pick k in 0..P
// and voteK in −1..P+2 for a case with P partitions.
func FuzzCandidatesVoted(f *testing.F) {
	for sh := range uint8(numShapes) {
		for lay := range uint8(3) {
			f.Add(int64(sh)*3+int64(lay), lay, sh, sh+3, uint8(2))
		}
	}
	// voteK = P+2 > k: need ≤ 0, every cell is a candidate.
	f.Add(int64(9), uint8(perChainSlots), uint8(0), uint8(0), uint8(255))
	f.Add(int64(4), uint8(singleChain), uint8(wideCells), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, lay, shape, kSel, voteSel uint8) {
		l, sh := layout(lay%3), caseShape(shape%numShapes)
		d, v, err := randomVotedCase(rand.New(rand.NewSource(seed)), l, sh)
		if err != nil {
			t.Fatal(err)
		}
		p := len(v.Fail)
		k := int(kSel) % (p + 1)
		voteK := int(voteSel)%(p+4) - 1
		checkVotedMatchesScan(t, d, v, k, voteK, fmt.Sprintf("%v shape %d seed %d", l, sh, seed))
	})
}

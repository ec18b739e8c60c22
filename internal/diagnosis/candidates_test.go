package diagnosis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bist"
	"repro/internal/bitset"
)

// candidatesScan is the reference Candidates must match: every cell ×
// partition is visited through groupOf, instead of starting from the
// members of partition 0's failing slots.
func (d *Diagnoser) candidatesScan(v *bist.Verdicts, k int) *bitset.Set {
	if k > len(v.Fail) {
		k = len(v.Fail)
	}
	cand := bitset.New(d.cfg.NumCells)
	for ci, ch := range d.cfg.Chains {
		for pos, cell := range ch.Cells {
			in := true
			for t := 0; t < k; t++ {
				if !v.Fail[t][d.groupOf(ci, pos, t)] {
					in = false
					break
				}
			}
			if in {
				cand.Add(cell)
			}
		}
	}
	return cand
}

// candidateCountsScan is the reference CandidateCounts must match: each
// cell's all-failing prefix length is found by scanning every cell ×
// partition.
func (d *Diagnoser) candidateCountsScan(v *bist.Verdicts, counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	kmax := len(counts)
	if kmax > len(v.Fail) {
		kmax = len(v.Fail)
	}
	if kmax == 0 {
		return
	}
	for ci, ch := range d.cfg.Chains {
		for pos := range ch.Cells {
			l := 0
			for t := 0; t < kmax; t++ {
				if !v.Fail[t][d.groupOf(ci, pos, t)] {
					break
				}
				l++
			}
			if l > 0 {
				counts[l-1]++
			}
		}
	}
	for k := kmax - 1; k > 0; k-- {
		counts[k-1] += counts[k]
	}
	for k := kmax; k < len(counts); k++ {
		counts[k] = counts[kmax-1]
	}
}

// checkCandidatesMatchScan compares Candidates at every k in 0..P and
// CandidateCounts at every count length in 0..P+2 with the reference
// scans. Each is called twice, and the counts buffer starts dirty, so
// state left over from an earlier call shows up.
func checkCandidatesMatchScan(t *testing.T, d *Diagnoser, v *bist.Verdicts, what string) {
	t.Helper()
	p := len(v.Fail)
	for k := 0; k <= p; k++ {
		want := d.candidatesScan(v, k)
		for call := 0; call < 2; call++ {
			if got := d.Candidates(v, k); !got.Equal(want) {
				t.Fatalf("%s k=%d call %d: Candidates = %v, scan = %v", what, k, call, got, want)
			}
		}
	}
	for n := 0; n <= p+2; n++ {
		want := make([]int, n)
		d.candidateCountsScan(v, want)
		for call := 0; call < 2; call++ {
			got := make([]int, n)
			for i := range got {
				got[i] = -7
			}
			d.CandidateCounts(v, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s len=%d call %d: CandidateCounts = %v, scan = %v", what, n, call, got, want)
			}
		}
	}
}

func TestCandidatesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, lay := range []layout{singleChain, sharedSlots, perChainSlots} {
		for i := 0; i < 300; i++ {
			d, v, err := randomPruneCase(rng, lay)
			if err != nil {
				t.Fatal(err)
			}
			checkCandidatesMatchScan(t, d, v, fmt.Sprintf("%v case %d", lay, i))
		}
	}
}

// FuzzCandidatesMatchScan compares the failing-slot-driven Candidates and
// CandidateCounts with the cell × partition scans on random
// configurations and verdicts drawn from the fuzzed seed.
func FuzzCandidatesMatchScan(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, lay uint8) {
		l := layout(lay % 3)
		d, v, err := randomPruneCase(rand.New(rand.NewSource(seed)), l)
		if err != nil {
			t.Fatal(err)
		}
		checkCandidatesMatchScan(t, d, v, fmt.Sprintf("%v seed %d", l, seed))
	})
}

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
// partition is visited through groupOf, instead of intersecting the
// failing-slot masks.
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
			sh := caseShape(rng.Intn(numShapes))
			d, v, err := randomPruneCase(rng, lay, sh)
			if err != nil {
				t.Fatal(err)
			}
			checkCandidatesMatchScan(t, d, v, fmt.Sprintf("%v shape %d case %d", lay, sh, i))
		}
	}
}

// FuzzCandidatesMatchScan compares the mask-algebra Candidates and
// CandidateCounts with the cell × partition scans on random
// configurations and verdicts drawn from the fuzzed seed, in the fuzzed
// layout and shape.
func FuzzCandidatesMatchScan(f *testing.F) {
	addShapeSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, lay, shape uint8) {
		l, sh := layout(lay%3), caseShape(shape%numShapes)
		d, v, err := randomPruneCase(rand.New(rand.NewSource(seed)), l, sh)
		if err != nil {
			t.Fatal(err)
		}
		checkCandidatesMatchScan(t, d, v, fmt.Sprintf("%v shape %d seed %d", l, sh, seed))
	})
}

// TestMasksAcrossChunks runs the oracles on configurations wider than one
// chunk of the word-parallel passes, and with more partitions than the
// vote counters keep on the stack.
func TestMasksAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i, lay := range []layout{singleChain, sharedSlots, perChainSlots} {
		sh := caseShape(i) // shuffled, natural and interleaved cell ids
		numCells := 2*chunkWords*64 + rng.Intn(200)
		d, v, err := pruneCase(rng, lay, sh, numCells, 3)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%v shape %d, %d cells", lay, sh, numCells)
		checkCandidatesMatchScan(t, d, v, what)
		checkPruneMatchesScan(t, d, v, what)
		for voteK := 1; voteK <= 3; voteK++ {
			checkVotedMatchesScan(t, d, v, 3, voteK, what)
		}
	}
	// Sixteen partitions need a fifth counter plane, past the stack's.
	k := 1 << votePlanes
	d, v, err := pruneCase(rng, sharedSlots, wideCells, 200, k)
	if err != nil {
		t.Fatal(err)
	}
	triState(rng, v)
	for voteK := 1; voteK <= k+1; voteK++ {
		checkVotedMatchesScan(t, d, v, k, voteK, fmt.Sprintf("%d partitions", k))
	}
}

// TestCandidateCountsAllocFree checks the allocation-free promise of
// CandidateCounts, on one chunk of words and on several.
func TestCandidateCountsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, numCells := range []int{300, 2*chunkWords*64 + 100} {
		d, v, err := pruneCase(rng, perChainSlots, wideRows, numCells, 6)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(v.Fail)+2)
		if n := testing.AllocsPerRun(50, func() { d.CandidateCounts(v, counts) }); n != 0 {
			t.Errorf("%d cells: CandidateCounts allocates %v times per call", numCells, n)
		}
	}
}

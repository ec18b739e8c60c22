package diagnosis

import (
	"math"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

type fixture struct {
	eng    *bist.Engine
	fs     *sim.FaultSim
	blocks []*sim.Block
	good   []*sim.Response
	diag   *Diagnoser
}

func newFixture(t *testing.T, plan bist.Plan, nPatterns int) *fixture {
	t.Helper()
	circ := benchgen.MustGenerate("s953")
	cfg := scan.SingleChain(circ.NumDFFs())
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, circ.NumInputs(), circ.NumDFFs(), nPatterns)
	fs := sim.NewFaultSim(circ, blocks)
	eng, err := bist.NewEngine(cfg, plan, nPatterns)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := FromEngine(eng)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]*sim.Response, len(blocks))
	for i := range blocks {
		good[i] = fs.Good(i)
	}
	return &fixture{eng: eng, fs: fs, blocks: blocks, good: good, diag: diag}
}

func (fx *fixture) diagnose(f sim.Fault) (*Result, *sim.Result) {
	res := fx.fs.Run(f)
	v := fx.eng.Verdicts(fx.good, res.Faulty, fx.blocks)
	return fx.diag.Diagnose(v), res
}

// TestCandidatesContainFailingCellsIdeal: with an alias-free compactor, the
// intersection candidate set must contain every actually failing cell —
// inclusion–exclusion never discards a failing cell.
func TestCandidatesContainFailingCellsIdeal(t *testing.T) {
	plan := bist.Plan{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 4, Ideal: true}
	fx := newFixture(t, plan, 64)
	faults := sim.SampleFaults(sim.FullFaultList(fx.fs.Circuit()), 80, 11)
	for _, f := range faults {
		diag, res := fx.diagnose(f)
		if !res.Detected() {
			continue
		}
		for _, cell := range res.FailingCells.Elems() {
			if !diag.Candidates.Contains(cell) {
				t.Fatalf("fault %s: failing cell %d dropped by intersection",
					f.Describe(fx.fs.Circuit()), cell)
			}
			if !diag.Pruned.Contains(cell) {
				t.Fatalf("fault %s: failing cell %d dropped by pruning",
					f.Describe(fx.fs.Circuit()), cell)
			}
		}
	}
}

// TestConfirmedCellsReallyFail: every confirmed cell must be an actually
// failing cell (with the real MISR, under the no-syndrome-collision
// assumption that holds for these seeds).
func TestConfirmedCellsReallyFail(t *testing.T) {
	plan := bist.Plan{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 6}
	fx := newFixture(t, plan, 64)
	faults := sim.SampleFaults(sim.FullFaultList(fx.fs.Circuit()), 80, 12)
	confirmedTotal := 0
	for _, f := range faults {
		diag, res := fx.diagnose(f)
		if !res.Detected() {
			continue
		}
		for _, cell := range diag.Confirmed.Elems() {
			confirmedTotal++
			if !res.FailingCells.Contains(cell) {
				t.Fatalf("fault %s: cell %d confirmed but not failing",
					f.Describe(fx.fs.Circuit()), cell)
			}
		}
		if !diag.Pruned.Equal(diag.Candidates) {
			// pruning must only ever shrink
			inter := diag.Pruned.Clone()
			inter.IntersectWith(diag.Candidates)
			if !inter.Equal(diag.Pruned) {
				t.Fatalf("fault %s: pruning added cells", f.Describe(fx.fs.Circuit()))
			}
		}
	}
	if confirmedTotal == 0 {
		t.Error("pruning never confirmed a single cell across 80 faults")
	}
}

// TestPruningImprovesResolution: aggregate candidate count after pruning
// must be at most the intersection count, and strictly smaller somewhere.
func TestPruningImprovesResolution(t *testing.T) {
	plan := bist.Plan{Scheme: partition.RandomSelection{}, Groups: 4, Partitions: 6}
	fx := newFixture(t, plan, 64)
	faults := sim.SampleFaults(sim.FullFaultList(fx.fs.Circuit()), 150, 13)
	base, pruned := 0, 0
	for _, f := range faults {
		diag, res := fx.diagnose(f)
		if !res.Detected() {
			continue
		}
		base += diag.Candidates.Len()
		pruned += diag.Pruned.Len()
	}
	if pruned > base {
		t.Fatalf("pruning grew candidates: %d > %d", pruned, base)
	}
	if pruned == base {
		t.Error("pruning never removed a candidate across 100 faults")
	}
}

// TestCandidatesPrefixMonotone: more partitions never enlarge the
// candidate set.
func TestCandidatesPrefixMonotone(t *testing.T) {
	plan := bist.Plan{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 8}
	fx := newFixture(t, plan, 64)
	faults := sim.SampleFaults(sim.FullFaultList(fx.fs.Circuit()), 40, 14)
	for _, f := range faults {
		res := fx.fs.Run(f)
		if !res.Detected() {
			continue
		}
		v := fx.eng.Verdicts(fx.good, res.Faulty, fx.blocks)
		prev := -1
		for k := 1; k <= 8; k++ {
			n := fx.diag.Candidates(v, k).Len()
			if prev >= 0 && n > prev {
				t.Fatalf("fault %s: candidates grew from %d to %d at k=%d",
					f.Describe(fx.fs.Circuit()), prev, n, k)
			}
			prev = n
		}
	}
}

func TestCandidatesHandVerified(t *testing.T) {
	// 6 cells, 1 chain, 2 partitions of 2 groups; craft verdicts by hand.
	cfg := scan.SingleChain(6)
	parts := [][]partition.Partition{{
		{GroupOf: []int{0, 0, 0, 1, 1, 1}, NumGroups: 2},
		{GroupOf: []int{0, 1, 0, 1, 0, 1}, NumGroups: 2},
	}}
	d, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	v := &bist.Verdicts{Fail: [][]bool{{true, false}, {false, true}}}
	// Partition 0: group 0 fails -> cells 0,1,2. Partition 1: group 1 fails
	// -> cells 1,3,5. Intersection = {1}.
	got := d.Candidates(v, 2)
	if !got.Equal(bitset.FromSlice([]int{1})) {
		t.Errorf("candidates = %v, want {1}", got)
	}
	// With only the first partition considered: {0,1,2}.
	got1 := d.Candidates(v, 1)
	if !got1.Equal(bitset.FromSlice([]int{0, 1, 2})) {
		t.Errorf("k=1 candidates = %v", got1)
	}
}

func TestPruneHandVerified(t *testing.T) {
	// Two failing cells 1 and 4 with distinct syndromes; partition 0 groups
	// {0,1,2}/{3,4,5}, partition 1 groups {0,3}/{1,4}/{2,5}... keep b=2:
	// partition 1: {0,1,4}/{2,3,5}? Use explicit group maps.
	cfg := scan.SingleChain(6)
	parts := [][]partition.Partition{{
		{GroupOf: []int{0, 0, 0, 1, 1, 1}, NumGroups: 2},
		{GroupOf: []int{0, 1, 0, 0, 1, 0}, NumGroups: 2},
	}}
	d, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	const synA, synB = 0x1111, 0x2222
	v := &bist.Verdicts{
		Fail: [][]bool{{true, true}, {false, true}},
		ErrSig: [][]uint64{
			{synA, synB},     // p0: group0 err = cell1, group1 err = cell4
			{0, synA ^ synB}, // p1: group1 = {1,4} -> XOR of both
		},
	}
	// Intersection: p0 fails both groups -> all 6; p1 group1 fails -> {1,4}.
	res := d.Diagnose(v)
	if !res.Candidates.Equal(bitset.FromSlice([]int{1, 4})) {
		t.Fatalf("candidates = %v, want {1,4}", res.Candidates)
	}
	// Pruning: p0 group0 members = {1} -> confirm 1 with synA; p0 group1
	// members = {4} -> confirm 4 with synB; p1 group1 residual becomes 0.
	if !res.Confirmed.Equal(bitset.FromSlice([]int{1, 4})) {
		t.Errorf("confirmed = %v, want {1,4}", res.Confirmed)
	}
	if !res.Pruned.Equal(bitset.FromSlice([]int{1, 4})) {
		t.Errorf("pruned = %v, want {1,4}", res.Pruned)
	}
}

func TestPruneStallsWithoutSingletons(t *testing.T) {
	// When no session isolates a single candidate, pruning must leave the
	// intersection set untouched rather than guess: both partitions put
	// cells 0 and 1 in the same failing group.
	cfg := scan.SingleChain(4)
	parts := [][]partition.Partition{{
		{GroupOf: []int{0, 0, 1, 1}, NumGroups: 2},
		{GroupOf: []int{0, 0, 0, 1}, NumGroups: 2},
	}}
	d, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	v := &bist.Verdicts{
		Fail:   [][]bool{{true, false}, {true, false}},
		ErrSig: [][]uint64{{0xABC, 0}, {0xABC, 0}},
	}
	// Intersection: p0 g0={0,1}, p1 g0={0,1,2} -> {0,1}.
	res := d.Diagnose(v)
	if !res.Candidates.Equal(bitset.FromSlice([]int{0, 1})) {
		t.Fatalf("candidates = %v, want {0,1}", res.Candidates)
	}
	// No singleton sessions, so nothing confirmed and no pruning possible
	// (residuals stay nonzero with two unknowns).
	if res.Pruned.Len() != 2 || res.Confirmed.Len() != 0 {
		t.Errorf("pruned=%v confirmed=%v", res.Pruned, res.Confirmed)
	}

}

func TestNewValidation(t *testing.T) {
	cfg := scan.SingleChain(4)
	ok := [][]partition.Partition{{{GroupOf: []int{0, 0, 1, 1}, NumGroups: 2}}}
	if _, err := New(cfg, ok); err != nil {
		t.Fatalf("valid rejected: %v", err)
	}
	if _, err := New(cfg, nil); err == nil {
		t.Error("missing partition lists accepted")
	}
	short := [][]partition.Partition{{{GroupOf: []int{0, 0, 1}, NumGroups: 2}}}
	if _, err := New(cfg, short); err == nil {
		t.Error("short partition accepted")
	}
	wide := [][]partition.Partition{{{GroupOf: []int{0, 0, 2, 1}, NumGroups: 2}}}
	if _, err := New(cfg, wide); err == nil {
		t.Error("group past NumGroups accepted")
	}
	cfg2, _ := scan.SplitContiguous(scan.NaturalOrder(4), 2)
	uneven := [][]partition.Partition{
		{{GroupOf: []int{0, 1}, NumGroups: 2}},
		{},
	}
	if _, err := New(cfg2, uneven); err == nil {
		t.Error("uneven partition counts accepted")
	}
}

func TestDRMetric(t *testing.T) {
	var dr DR
	if dr.Value() != 0 {
		t.Error("empty DR should be 0")
	}
	dr.Add(10, 2) // 8 extra
	dr.Add(3, 3)  // 0 extra
	want := float64(13-5) / 5
	if math.Abs(dr.Value()-want) > 1e-12 {
		t.Errorf("DR = %v, want %v", dr.Value(), want)
	}
	if dr.Faults != 2 {
		t.Errorf("Faults = %d", dr.Faults)
	}
	if dr.String() == "" {
		t.Error("empty String")
	}
}

package soc

import (
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim"
)

// smallSOC builds a three-core SOC from small profiles for fast tests.
func smallSOC(t *testing.T) *SOC {
	t.Helper()
	var cores []*Core
	for _, name := range []string{"s298", "s953", "s526"} {
		cores = append(cores, &Core{Name: name, Circuit: benchgen.MustGenerate(name)})
	}
	s, err := New("mini", cores...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewAndRanges(t *testing.T) {
	s := smallSOC(t)
	if s.NumCores() != 3 {
		t.Fatalf("cores = %d", s.NumCores())
	}
	want := 14 + 29 + 21
	if s.NumCells() != want {
		t.Errorf("cells = %d, want %d", s.NumCells(), want)
	}
	lo, hi := s.CellRange(1)
	if lo != 14 || hi != 43 {
		t.Errorf("core 1 range = [%d,%d)", lo, hi)
	}
	core, err := s.CoreOfCell(20)
	if err != nil || core != 1 {
		t.Errorf("CoreOfCell(20) = %d, %v", core, err)
	}
	if _, err := s.CoreOfCell(999); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if i, ok := s.CoreByName("s953"); !ok || i != 1 {
		t.Errorf("CoreByName = %d, %v", i, ok)
	}
	if _, ok := s.CoreByName("nope"); ok {
		t.Error("found nonexistent core")
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New("x"); err == nil {
		t.Error("empty SOC accepted")
	}
	if _, err := New("x", &Core{Name: "broken"}); err == nil {
		t.Error("core without netlist accepted")
	}
}

func TestMetaChains(t *testing.T) {
	s := smallSOC(t)
	single := s.SingleMetaChain()
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
	if single.NumChains() != 1 || single.MaxChainLength() != s.NumCells() {
		t.Error("single meta chain malformed")
	}
	multi, err := s.MetaChains(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Validate(); err != nil {
		t.Fatal(err)
	}
	if multi.NumChains() != 4 {
		t.Errorf("chains = %d", multi.NumChains())
	}
	if multi.MaxChainLength()-multi.Chains[3].Len() > 1 {
		t.Error("meta chains unbalanced")
	}
}

func TestBypass(t *testing.T) {
	s := smallSOC(t)
	b, err := s.Bypass(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumCores() != 2 || b.NumCells() != 14+21 {
		t.Errorf("bypassed SOC: %d cores, %d cells", b.NumCores(), b.NumCells())
	}
	if _, err := s.Bypass(17); err == nil {
		t.Error("bypass of nonexistent core accepted")
	}
}

func TestGeneratePatternsDeterministicAndAligned(t *testing.T) {
	s := smallSOC(t)
	p1 := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 70)
	p2 := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 70)
	for i := range p1 {
		if len(p1[i]) != 2 {
			t.Fatalf("core %d has %d blocks", i, len(p1[i]))
		}
		for bi := range p1[i] {
			if p1[i][bi].N != p2[i][bi].N {
				t.Fatal("pattern counts differ")
			}
			for j := range p1[i][bi].State {
				if p1[i][bi].State[j] != p2[i][bi].State[j] {
					t.Fatal("not deterministic")
				}
			}
		}
	}
	if p1[0][1].N != 6 || p1[2][0].N != 64 {
		t.Errorf("block sizes: %d, %d", p1[0][1].N, p1[2][0].N)
	}
}

func TestFaultSimGlobalAssembly(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 64)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumPatterns() != 64 {
		t.Errorf("NumPatterns = %d", fs.NumPatterns())
	}
	// Pick a detected fault in core 1 and check global placement.
	faults := fs.CoreFaults(1)
	var res *Result
	for _, f := range faults {
		if r := fs.Run(1, f); r.Detected() {
			res = r
			break
		}
	}
	if res == nil {
		t.Fatal("no detected fault in core 1")
	}
	lo, hi := s.CellRange(1)
	for _, cell := range res.FailingCells.Elems() {
		if cell < lo || cell >= hi {
			t.Errorf("failing cell %d outside core 1 range [%d,%d)", cell, lo, hi)
		}
	}
	// Other cores' responses must be untouched.
	for bi, g := range fs.Good() {
		for cell := 0; cell < lo; cell++ {
			if res.Faulty[bi].Next[cell] != g.Next[cell] {
				t.Fatalf("core 0 cell %d perturbed by core 1 fault", cell)
			}
		}
		for cell := hi; cell < s.NumCells(); cell++ {
			if res.Faulty[bi].Next[cell] != g.Next[cell] {
				t.Fatalf("core 2 cell %d perturbed by core 1 fault", cell)
			}
		}
	}
}

func TestNewFaultSimValidation(t *testing.T) {
	s := smallSOC(t)
	if _, err := NewFaultSim(s, nil); err == nil {
		t.Error("missing patterns accepted")
	}
}

// TestSOCFaultClusteringEndToEnd verifies the Section 5 premise on the
// actual SOC: every failing cell of a single-core fault falls within the
// faulty core's segment of the meta chain, so failures are clustered.
func TestSOCFaultClusteringEndToEnd(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 64)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.SingleMetaChain()
	eng, err := bist.NewEngine(cfg, bist.Plan{
		Scheme: partition.TwoStep{}, Groups: 8, Partitions: 2,
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.SampleFaults(fs.CoreFaults(2), 10, 5)
	lo, hi := s.CellRange(2)
	for _, f := range faults {
		r := fs.Run(2, f)
		if !r.Detected() {
			continue
		}
		if r.FailingCells.Min() < lo || r.FailingCells.Max() >= hi {
			t.Fatalf("fault %s: failing cells %v escape core 2 [%d,%d)",
				f.Describe(s.Cores[2].Circuit), r.FailingCells, lo, hi)
		}
		v := eng.Verdicts(fs.Good(), r.Faulty, fs.Blocks())
		if v.NumFailing() == 0 {
			t.Fatalf("fault %s detected by simulation but no session failed", f.Describe(s.Cores[2].Circuit))
		}
	}
}

func TestPredefinedSOCs(t *testing.T) {
	if testing.Short() {
		t.Skip("large SOC construction in -short mode")
	}
	s1, err := SOC1()
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumCores() != 6 {
		t.Errorf("SOC1 cores = %d", s1.NumCores())
	}
	// 179+211+638+534+1636+1426
	if want := 4624; s1.NumCells() != want {
		t.Errorf("SOC1 cells = %d, want %d", s1.NumCells(), want)
	}
	s2, err := SOC2()
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumCores() != 8 {
		t.Errorf("SOC2 cores = %d", s2.NumCores())
	}
	cfg, err := s2.MetaChains(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRunMultiTwoFaultyCores: simultaneous defects in two cores produce
// two clustered failing segments, one per core, and untouched segments
// elsewhere.
func TestRunMultiTwoFaultyCores(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 64)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(core int) sim.Fault {
		for _, f := range fs.CoreFaults(core) {
			if fs.Run(core, f).Detected() {
				return f
			}
		}
		t.Fatalf("no detected fault in core %d", core)
		panic("unreachable")
	}
	f0, f2 := pick(0), pick(2)
	both := fs.RunMulti(map[int]sim.Fault{0: f0, 2: f2})
	if both.Core != 0 || both.Fault != f0 {
		t.Errorf("Result labels core %d", both.Core)
	}
	// Failing cells must equal the union of the single-core runs.
	union := fs.Run(0, f0).FailingCells.Clone()
	union.UnionWith(fs.Run(2, f2).FailingCells)
	if !both.FailingCells.Equal(union) {
		t.Errorf("multi-core failing cells %v != union %v", both.FailingCells, union)
	}
	// Core 1's segment must be untouched.
	lo, hi := s.CellRange(1)
	for bi, g := range fs.Good() {
		for cell := lo; cell < hi; cell++ {
			if both.Faulty[bi].Next[cell] != g.Next[cell] {
				t.Fatalf("healthy core perturbed at cell %d", cell)
			}
		}
	}
}

func TestRunMultiEmptyPanics(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 64)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("RunMulti(nil) did not panic")
		}
	}()
	fs.RunMulti(nil)
}

func TestForkIndependence(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 64)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	fork := fs.Fork()
	f := fs.CoreFaults(1)[0]
	a := fs.Run(1, f)
	b := fork.Run(1, f)
	if !a.FailingCells.Equal(b.FailingCells) {
		t.Error("fork produced different failing cells")
	}
}

func TestScheduleBypass(t *testing.T) {
	s := smallSOC(t) // cores of 14, 29, 21 cells
	phases, err := s.Schedule([]int{100, 40, 70})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: all three cores for 40 patterns on a 64-cell chain.
	// Phase 2: cores 0 and 2 for 30 more on 35 cells.
	// Phase 3: core 0 alone for 30 more on 14 cells.
	want := []Phase{
		{ActiveCores: []int{0, 1, 2}, Patterns: 40, ChainLen: 64},
		{ActiveCores: []int{0, 2}, Patterns: 30, ChainLen: 35},
		{ActiveCores: []int{0}, Patterns: 30, ChainLen: 14},
	}
	if len(phases) != len(want) {
		t.Fatalf("got %d phases: %+v", len(phases), phases)
	}
	for i, p := range phases {
		w := want[i]
		if p.Patterns != w.Patterns || p.ChainLen != w.ChainLen || len(p.ActiveCores) != len(w.ActiveCores) {
			t.Errorf("phase %d = %+v, want %+v", i, p, w)
		}
	}
	// Bypassing saves clocks over running the full chain for the longest
	// budget.
	naive := int64(100) * int64(s.NumCells())
	got := ScheduleClocks(phases)
	if got >= naive {
		t.Errorf("schedule takes %d clocks, naive full-chain %d", got, naive)
	}
	// Every core receives exactly its budget.
	received := make([]int, s.NumCores())
	for _, p := range phases {
		for _, c := range p.ActiveCores {
			received[c] += p.Patterns
		}
	}
	for i, want := range []int{100, 40, 70} {
		if received[i] != want {
			t.Errorf("core %d received %d of %d patterns", i, received[i], want)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	s := smallSOC(t)
	if _, err := s.Schedule([]int{1}); err == nil {
		t.Error("wrong budget count accepted")
	}
	phases, err := s.Schedule([]int{0, 0, 0})
	if err != nil || len(phases) != 0 {
		t.Errorf("zero budgets: %v, %d phases", err, len(phases))
	}
	// Equal budgets: a single phase.
	phases, err = s.Schedule([]int{64, 64, 64})
	if err != nil || len(phases) != 1 {
		t.Errorf("equal budgets: %v, %d phases", err, len(phases))
	}
}

// TestEventEquivalenceMetaChain pins the SOC fault loop — whose per-core
// simulators now run event-driven — against a full-pass reconstruction:
// the faulty core's reference responses spliced into the fault-free global
// stream, with failing cells shifted by the core's segment offset. Cores
// are interleaved through one shared Scratch so the cross-core segment
// restore is exercised, and every result is checked against the cone
// restriction: a spot defect can only corrupt GlobalConeCells of its site.
func TestEventEquivalenceMetaChain(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 100)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*sim.FaultSim, s.NumCores())
	for i, c := range s.Cores {
		refs[i] = sim.NewFaultSim(c.Circuit, patterns[i])
	}
	rng := rand.New(rand.NewSource(3))
	sc := fs.NewScratch()
	for step := 0; step < 300; step++ {
		core := rng.Intn(s.NumCores())
		faults := fs.CoreFaults(core)
		f := faults[rng.Intn(len(faults))]
		want := refs[core].RunReference(f)
		lo, hi := s.CellRange(core)
		wantCells := bitset.New(s.NumCells())
		want.FailingCells.ForEach(func(cell int) { wantCells.Add(lo + cell) })
		cc := s.Cores[core].Circuit
		allowed := make(map[int]bool)
		if !f.Stem() && cc.Nets[f.Gate].Op == logic.OpDFF {
			allowed[lo+cc.DFFIndex(f.Gate)] = true
		} else {
			site := f.Net
			if !f.Stem() {
				site = f.Gate
			}
			for _, cell := range s.GlobalConeCells(core, site) {
				allowed[cell] = true
			}
		}
		for _, got := range []*Result{fs.Run(core, f), fs.RunInto(core, f, sc)} {
			if !got.FailingCells.Equal(wantCells) {
				t.Fatalf("core %d %s: FailingCells %v, want %v",
					core, f.Describe(cc), got.FailingCells, wantCells)
			}
			got.FailingCells.ForEach(func(cell int) {
				if !allowed[cell] {
					t.Fatalf("core %d %s: failing cell %d outside global cone",
						core, f.Describe(cc), cell)
				}
			})
			for bi := range got.Faulty {
				for cell := 0; cell < s.NumCells(); cell++ {
					wantWord := fs.Good()[bi].Next[cell]
					if cell >= lo && cell < hi {
						wantWord = want.Faulty[bi].Next[cell-lo]
					}
					if got.Faulty[bi].Next[cell] != wantWord {
						t.Fatalf("core %d %s block %d cell %d: %#x, want %#x",
							core, f.Describe(cc), bi, cell, got.Faulty[bi].Next[cell], wantWord)
					}
				}
			}
		}
	}
}

// TestGlobalConeCells checks the cone-to-segment shift: each core's local
// cone cells map onto its contiguous [lo,hi) slice of the meta chain.
func TestGlobalConeCells(t *testing.T) {
	s := smallSOC(t)
	for core := range s.Cores {
		lo, hi := s.CellRange(core)
		c := s.Cores[core].Circuit
		for _, id := range c.Inputs {
			local := c.Cone(id).Cells
			global := s.GlobalConeCells(core, id)
			if len(global) != len(local) {
				t.Fatalf("core %d net %d: %d global cells for %d local", core, id, len(global), len(local))
			}
			for i := range local {
				if global[i] != lo+local[i] || global[i] < lo || global[i] >= hi {
					t.Fatalf("core %d net %d: global cell %d for local %d, segment [%d,%d)",
						core, id, global[i], local[i], lo, hi)
				}
			}
		}
	}
}

// TestBatchEquivalenceMetaChain pins the SOC batch path to the full-pass
// reference: fault batches from several cores are interleaved round-robin
// on one shared Scratch, so every materialization crosses a core boundary
// and exercises the segment-restore protocol, and each member's global
// failing cells and response words must match the single-fault assembly
// exactly.
func TestBatchEquivalenceMetaChain(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 100)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*sim.FaultSim, s.NumCores())
	for i, c := range s.Cores {
		refs[i] = sim.NewFaultSim(c.Circuit, patterns[i])
	}
	sc := fs.NewScratch()
	type coreSweep struct {
		core   int
		faults []sim.Fault
		plan   *sim.BatchPlan
		bs     *sim.BatchScratch
	}
	var sweeps []coreSweep
	for core := 0; core < s.NumCores(); core++ {
		faults := sim.SampleFaults(fs.CoreFaults(core), 150, int64(41+core))
		plan := fs.PlanCoreBatches(core, faults, sim.BatchOptions{})
		sweeps = append(sweeps, coreSweep{core, faults, plan, fs.NewCoreBatchScratch(core, plan)})
	}
	covered := 0
	for round := 0; ; round++ {
		progressed := false
		for _, sw := range sweeps {
			if round >= len(sw.plan.Batches) {
				continue
			}
			progressed = true
			cb := sw.plan.Batches[round]
			fs.RunBatch(sw.core, cb, sw.bs)
			lo, hi := s.CellRange(sw.core)
			for k, i := range cb.Index {
				covered++
				f := sw.faults[i]
				cc := s.Cores[sw.core].Circuit
				got := fs.MaterializeBatch(sw.core, sw.bs, k, sc)
				want := refs[sw.core].RunReference(f)
				wantCells := bitset.New(s.NumCells())
				want.FailingCells.ForEach(func(cell int) { wantCells.Add(lo + cell) })
				if !got.FailingCells.Equal(wantCells) {
					t.Fatalf("core %d %s: FailingCells %v, want %v",
						sw.core, f.Describe(cc), got.FailingCells, wantCells)
				}
				for bi := range got.Faulty {
					for cell := 0; cell < s.NumCells(); cell++ {
						wantWord := fs.Good()[bi].Next[cell]
						if cell >= lo && cell < hi {
							wantWord = want.Faulty[bi].Next[cell-lo]
						}
						if got.Faulty[bi].Next[cell] != wantWord {
							t.Fatalf("core %d %s block %d cell %d: %#x, want %#x",
								sw.core, f.Describe(cc), bi, cell, got.Faulty[bi].Next[cell], wantWord)
						}
					}
				}
			}
		}
		if !progressed {
			break
		}
	}
	want := 0
	for _, sw := range sweeps {
		want += len(sw.faults)
	}
	if covered != want {
		t.Fatalf("interleaved sweeps covered %d of %d faults", covered, want)
	}
}

// TestForkLazyPerCore pins the lazy fork: a fork forks a core's
// simulator on first use only, CoreSims still hands out one simulator
// per core (the fork's own, not the shared ones), and MemoryFootprint of
// the root keeps counting every core's shared layer plus the global
// responses — a fork reports the same shared footprint.
func TestForkLazyPerCore(t *testing.T) {
	s := smallSOC(t)
	patterns := s.GeneratePatterns(lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1), 100)
	fs, err := NewFaultSim(s, patterns)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, cs := range fs.CoreSims() {
		want += cs.MemoryFootprint()
	}
	for _, g := range fs.Good() {
		want += int64(len(g.Next)+len(g.PO)) * 8
	}
	// 16672 is the footprint the eager fork's FaultSim reported for this
	// SOC and pattern set.
	if got := fs.MemoryFootprint(); got != want || got != 16672 {
		t.Fatalf("root MemoryFootprint %d, want %d (pinned 16672)", got, want)
	}

	fork := fs.Fork()
	f := fs.CoreFaults(1)[3]
	if got, ref := fork.Run(1, f), fs.Run(1, f); !got.FailingCells.Equal(ref.FailingCells) {
		t.Fatal("lazy fork diagnosed a different failing-cell set")
	}
	for i, cs := range fork.sims {
		if forked := cs != nil; forked != (i == 1) {
			t.Errorf("core %d forked=%t after a sweep of core 1 only", i, forked)
		}
	}
	if got := fork.MemoryFootprint(); got != want {
		t.Errorf("fork MemoryFootprint %d, want the root's %d", got, want)
	}

	sims := fork.CoreSims()
	if len(sims) != s.NumCores() {
		t.Fatalf("CoreSims returned %d simulators for %d cores", len(sims), s.NumCores())
	}
	for i, cs := range sims {
		if cs == nil || cs == fs.CoreSims()[i] {
			t.Errorf("core %d: fork's CoreSims entry is not its own fork", i)
			continue
		}
		if cs.Circuit() != s.Cores[i].Circuit {
			t.Errorf("core %d: simulator for %s", i, cs.Circuit().Name)
		}
	}
	if got := fork.CoreSims()[1]; got != sims[1] {
		t.Error("CoreSims re-forked a core the fork already owned")
	}
}

package sim

import (
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// requireSameResult pins two Results to each other bit-for-bit: failing
// cells, detecting-pattern count, PO-only flag, and every word of every
// faulty response (all 64 lanes, including the unused ones of a partial
// block, since downstream signature computation reads the raw words).
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !got.FailingCells.Equal(want.FailingCells) {
		t.Fatalf("%s: FailingCells %v != reference %v", label, got.FailingCells, want.FailingCells)
	}
	if got.DetectingPatterns != want.DetectingPatterns {
		t.Fatalf("%s: DetectingPatterns %d != reference %d", label, got.DetectingPatterns, want.DetectingPatterns)
	}
	if got.POOnly != want.POOnly {
		t.Fatalf("%s: POOnly %v != reference %v", label, got.POOnly, want.POOnly)
	}
	if len(got.Faulty) != len(want.Faulty) {
		t.Fatalf("%s: %d faulty blocks != reference %d", label, len(got.Faulty), len(want.Faulty))
	}
	for bi := range got.Faulty {
		for i := range want.Faulty[bi].Next {
			if got.Faulty[bi].Next[i] != want.Faulty[bi].Next[i] {
				t.Fatalf("%s block %d cell %d: %#x != reference %#x",
					label, bi, i, got.Faulty[bi].Next[i], want.Faulty[bi].Next[i])
			}
		}
		for i := range want.Faulty[bi].PO {
			if got.Faulty[bi].PO[i] != want.Faulty[bi].PO[i] {
				t.Fatalf("%s block %d PO %d: %#x != reference %#x",
					label, bi, i, got.Faulty[bi].PO[i], want.Faulty[bi].PO[i])
			}
		}
	}
}

func equivalenceCircuit(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	if name == "s27" {
		return parseS27(t)
	}
	return benchgen.MustGenerate(name)
}

func equivalenceBlocks(c *circuit.Circuit, counts []int, seed int64) []*Block {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]*Block, len(counts))
	for i, n := range counts {
		blocks[i] = randomBlock(c, n, rng)
	}
	return blocks
}

// TestEventEquivalence pins the event-driven engine to the full-pass
// reference over the complete uncollapsed fault list — every stem and
// branch fault, both stuck values, including branch faults on flip-flop D
// pins — across circuits and block shapes (full, partial, and multi-block
// pattern sets).
func TestEventEquivalence(t *testing.T) {
	cases := []struct {
		circuit string
		counts  []int
	}{
		{"s27", []int{64, 64, 7}},
		{"s298", []int{64}},
		{"s953", []int{17}},
		{"s953", []int{64, 64}},
		{"s1423", []int{64, 3}},
		{"s5378", []int{64, 64}},
	}
	for _, tc := range cases {
		c := equivalenceCircuit(t, tc.circuit)
		blocks := equivalenceBlocks(c, tc.counts, 11)
		fs := NewFaultSim(c, blocks)
		faults := FullFaultList(c)
		if tc.circuit == "s5378" {
			faults = SampleFaults(faults, 600, 5)
		}
		for _, f := range faults {
			got := fs.Run(f)
			want := fs.RunReference(f)
			requireSameResult(t, tc.circuit+" "+f.Describe(c), got, want)
		}
	}
}

// TestEventRunIntoSequence drives one Scratch through a long, repeating
// fault sequence and checks every step against the reference — this is
// what validates the O(events) restore between faults: a stale patch from
// fault k would corrupt fault k+1.
func TestEventRunIntoSequence(t *testing.T) {
	c := equivalenceCircuit(t, "s953")
	blocks := equivalenceBlocks(c, []int{64, 40}, 12)
	fs := NewFaultSim(c, blocks)
	faults := FullFaultList(c)
	rng := rand.New(rand.NewSource(7))
	sc := fs.NewScratch()
	for step := 0; step < 1500; step++ {
		f := faults[rng.Intn(len(faults))]
		got := fs.RunInto(f, sc)
		want := fs.RunReference(f)
		requireSameResult(t, f.Describe(c), got, want)
	}
}

// TestEventForkAllocatesNoNetValues: the event engine never reads the
// full-pass net values, so a fork that only runs events leaves them
// unallocated; the first full pass allocates them.
func TestEventForkAllocatesNoNetValues(t *testing.T) {
	c := equivalenceCircuit(t, "s953")
	fs := NewFaultSim(c, equivalenceBlocks(c, []int{64, 40}, 12)).Fork()
	sc := fs.NewScratch()
	for _, f := range FullFaultList(c)[:50] {
		fs.RunInto(f, sc)
	}
	for _, f := range TransitionFaultList(c)[:50] {
		fs.RunTransition(f)
	}
	if fs.sim.vals != nil {
		t.Fatal("event-driven runs on a fork allocated the full-pass net values")
	}
	fs.RunReference(FullFaultList(c)[0])
	if len(fs.sim.vals) != c.NumNets() {
		t.Fatalf("a full pass left %d net values, want %d", len(fs.sim.vals), c.NumNets())
	}
}

// TestEventTransitionEquivalence pins the event-driven launch-off-capture
// path to the two-full-pass reference for every transition fault.
func TestEventTransitionEquivalence(t *testing.T) {
	for _, name := range []string{"s298", "s953"} {
		c := equivalenceCircuit(t, name)
		blocks := equivalenceBlocks(c, []int{64, 30}, 13)
		fs := NewFaultSim(c, blocks)
		for _, f := range TransitionFaultList(c) {
			got := fs.RunTransition(f)
			want := fs.RunTransitionReference(f)
			requireSameResult(t, name+" "+f.Describe(c), got, want)
		}
	}
}

// TestEventResultWithinCone checks the structural guarantee the engine
// rests on, for stuck-at and transition faults: every failing cell lies in
// the memoized cone of its site. The engine reads no cone, so the memoized
// walk is an independent check of where its events went.
func TestEventResultWithinCone(t *testing.T) {
	c := equivalenceCircuit(t, "s953")
	blocks := equivalenceBlocks(c, []int{64}, 14)
	fs := NewFaultSim(c, blocks)
	within := func(label string, res *Result, cells []int) {
		t.Helper()
		inCone := make(map[int]bool)
		for _, cell := range cells {
			inCone[cell] = true
		}
		res.FailingCells.ForEach(func(cell int) {
			if !inCone[cell] {
				t.Fatalf("%s: failing cell %d outside cone of its site", label, cell)
			}
		})
	}
	for _, f := range FullFaultList(c) {
		switch {
		case !f.Stem() && c.Nets[f.Gate].Op == logic.OpDFF:
			// A branch fault on a D pin corrupts exactly that cell.
			within(f.Describe(c), fs.Run(f), []int{c.DFFIndex(f.Gate)})
		case f.Stem():
			within(f.Describe(c), fs.Run(f), c.Cone(f.Net).Cells)
		default:
			within(f.Describe(c), fs.Run(f), c.Cone(f.Gate).Cells)
		}
	}
	detected := 0
	for _, f := range TransitionFaultList(c) {
		res := fs.RunTransition(f)
		if res.Detected() {
			detected++
		}
		within(f.Describe(c), res, c.Cone(f.Net).Cells)
	}
	if detected == 0 {
		t.Fatal("no transition fault detected")
	}
}

// TestEventDuplicateOutputs pins the event engine's output observation to
// the reference on a netlist whose outputs repeat a gate, and also name a
// flip-flop output and a primary input: every declared position of a
// changed net must be patched.
func TestEventDuplicateOutputs(t *testing.T) {
	b := circuit.NewBuilder("dupout")
	b.Input("a").Input("b").Input("c")
	b.Output("g").Output("q").Output("g").Output("a").Output("h").Output("g")
	b.DFF("q", "h").DFF("r", "g")
	b.Gate("g", logic.OpAnd, "a", "q")
	b.Gate("h", logic.OpXor, "g", "b")
	b.Gate("k", logic.OpOr, "h", "c", "r")
	b.Output("k")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSim(c, equivalenceBlocks(c, []int{64, 9}, 15))
	sc := fs.NewScratch()
	for _, f := range FullFaultList(c) {
		requireSameResult(t, f.Describe(c), fs.RunInto(f, sc), fs.RunReference(f))
	}
	for _, f := range TransitionFaultList(c) {
		requireSameResult(t, f.Describe(c), fs.RunTransition(f), fs.RunTransitionReference(f))
	}
}

// FuzzIncrementalSim fuzzes the event-driven engine against the full-pass
// oracle: random circuit choice, block shapes, and fault sequences through
// one shared Scratch.
func FuzzIncrementalSim(f *testing.F) {
	f.Add(uint8(0), uint8(64), int64(1), int64(2))
	f.Add(uint8(1), uint8(7), int64(3), int64(4))
	f.Add(uint8(2), uint8(33), int64(5), int64(6))
	f.Add(uint8(3), uint8(64), int64(7), int64(8))
	circuits := []string{"s27", "s298", "s344", "s526"}
	f.Fuzz(func(t *testing.T, which, patterns uint8, blockSeed, faultSeed int64) {
		name := circuits[int(which)%len(circuits)]
		var c *circuit.Circuit
		if name == "s27" {
			c = parseS27(t)
		} else {
			c = benchgen.MustGenerate(name)
		}
		n := int(patterns)%64 + 1
		blocks := equivalenceBlocks(c, []int{64, n}, blockSeed)
		fs := NewFaultSim(c, blocks)
		faults := FullFaultList(c)
		rng := rand.New(rand.NewSource(faultSeed))
		sc := fs.NewScratch()
		for step := 0; step < 40; step++ {
			fault := faults[rng.Intn(len(faults))]
			got := fs.RunInto(fault, sc)
			want := fs.RunReference(fault)
			requireSameResult(t, fault.Describe(c), got, want)
		}
		tf := TransitionFaultList(c)[rng.Intn(2*c.NumNets())]
		requireSameResult(t, tf.Describe(c), fs.RunTransition(tf), fs.RunTransitionReference(tf))
	})
}

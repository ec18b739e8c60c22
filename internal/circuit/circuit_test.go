package circuit

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
)

// buildS27Like builds a small sequential circuit shaped like ISCAS-89 s27:
// 4 inputs, 1 output, 3 DFFs, a handful of gates.
func buildS27Like(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("s27ish")
	b.Input("G0").Input("G1").Input("G2").Input("G3")
	b.Output("G17")
	b.DFF("G5", "G10").DFF("G6", "G11").DFF("G7", "G13")
	b.Gate("G14", logic.OpNot, "G0")
	b.Gate("G8", logic.OpAnd, "G14", "G6")
	b.Gate("G15", logic.OpOr, "G12", "G8")
	b.Gate("G16", logic.OpOr, "G3", "G8")
	b.Gate("G9", logic.OpNand, "G16", "G15")
	b.Gate("G10", logic.OpNor, "G14", "G11")
	b.Gate("G11", logic.OpNor, "G5", "G9")
	b.Gate("G12", logic.OpNor, "G1", "G7")
	b.Gate("G13", logic.OpNor, "G2", "G12")
	b.Gate("G17", logic.OpNot, "G11")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuildCounts(t *testing.T) {
	c := buildS27Like(t)
	if c.NumInputs() != 4 {
		t.Errorf("inputs = %d, want 4", c.NumInputs())
	}
	if c.NumOutputs() != 1 {
		t.Errorf("outputs = %d, want 1", c.NumOutputs())
	}
	if c.NumDFFs() != 3 {
		t.Errorf("dffs = %d, want 3", c.NumDFFs())
	}
	if c.NumGates() != 10 {
		t.Errorf("gates = %d, want 10", c.NumGates())
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	c := buildS27Like(t)
	pos := make(map[NetID]int)
	for i, id := range c.TopoOrder() {
		pos[id] = i
	}
	for _, id := range c.TopoOrder() {
		for _, f := range c.Nets[id].Fanin {
			if c.Nets[f].Op.Combinational() && pos[f] >= pos[id] {
				t.Errorf("gate %s at %d before its fan-in %s at %d",
					c.Nets[id].Name, pos[id], c.Nets[f].Name, pos[f])
			}
		}
	}
}

// TestMaxFanin: MaxFanin is the largest fan-in over the gates of the
// topological order.
func TestMaxFanin(t *testing.T) {
	c := buildS27Like(t)
	want := 0
	for _, id := range c.TopoOrder() {
		want = max(want, len(c.Nets[id].Fanin))
	}
	if want == 0 || c.MaxFanin() != want {
		t.Errorf("MaxFanin = %d, want %d", c.MaxFanin(), want)
	}
}

func TestLevels(t *testing.T) {
	c := buildS27Like(t)
	for _, in := range c.Inputs {
		if c.Level(in) != 0 {
			t.Errorf("input %s level = %d, want 0", c.Nets[in].Name, c.Level(in))
		}
	}
	for _, id := range c.TopoOrder() {
		want := 0
		for _, f := range c.Nets[id].Fanin {
			if l := c.Level(f) + 1; l > want {
				want = l
			}
		}
		if c.Level(id) != want {
			t.Errorf("gate %s level = %d, want %d", c.Nets[id].Name, c.Level(id), want)
		}
	}
	if c.Depth() < 2 {
		t.Errorf("depth = %d, expected at least 2", c.Depth())
	}
}

func TestNetByName(t *testing.T) {
	c := buildS27Like(t)
	id, ok := c.NetByName("G9")
	if !ok {
		t.Fatal("G9 not found")
	}
	if c.Nets[id].Name != "G9" || c.Nets[id].Op != logic.OpNand {
		t.Errorf("G9 = %v %v", c.Nets[id].Name, c.Nets[id].Op)
	}
	if _, ok := c.NetByName("nope"); ok {
		t.Error("found nonexistent net")
	}
}

func TestDFFIndex(t *testing.T) {
	c := buildS27Like(t)
	for i, id := range c.DFFs {
		if c.DFFIndex(id) != i {
			t.Errorf("DFFIndex(%s) = %d, want %d", c.Nets[id].Name, c.DFFIndex(id), i)
		}
	}
	if c.DFFIndex(c.Inputs[0]) != -1 {
		t.Error("DFFIndex of an input should be -1")
	}
}

// TestOutputPos checks the per-net output index: every position of a net
// declared as an output, in ascending order, including repeated
// declarations, a flip-flop output and a primary input declared as
// outputs; nets that are no output report -1.
func TestOutputPos(t *testing.T) {
	b := NewBuilder("dupout")
	b.Input("a").Input("b")
	b.Output("g").Output("q").Output("g").Output("a").Output("g")
	b.DFF("q", "h")
	b.Gate("g", logic.OpAnd, "a", "q")
	b.Gate("h", logic.OpXor, "g", "b")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[NetID][]int)
	for pos, id := range c.Outputs {
		want[id] = append(want[id], pos)
	}
	for id := range c.Nets {
		var got []int
		for pos := c.OutputPos(NetID(id)); pos >= 0; pos = c.NextOutputPos(pos) {
			got = append(got, pos)
		}
		if fmt.Sprint(got) != fmt.Sprint(want[NetID(id)]) {
			t.Errorf("net %s: output positions %v, want %v", c.Nets[id].Name, got, want[NetID(id)])
		}
	}
}

func TestFanoutConeStopsAtDFF(t *testing.T) {
	c := buildS27Like(t)
	g12, _ := c.NetByName("G12")
	cone := c.FanoutCone(g12)
	names := map[string]bool{}
	for _, id := range cone {
		names[c.Nets[id].Name] = true
	}
	// G12 feeds G15 and G13; G13 is the D input of DFF G7; the cone must
	// include G7 as a frontier but not anything G7 drives beyond the clock
	// boundary that is not otherwise reachable.
	for _, want := range []string{"G12", "G15", "G13", "G7", "G9"} {
		if !names[want] {
			t.Errorf("cone of G12 missing %s (got %v)", want, keys(names))
		}
	}
}

func TestConeCells(t *testing.T) {
	c := buildS27Like(t)
	g1, _ := c.NetByName("G1")
	cells := c.ConeCells(g1)
	// G1 -> G12 -> {G13 -> DFF G7, G15 -> G9 -> G11 -> DFF G6(D=G11), and
	// G11 also feeds G10 -> DFF G5}.
	if len(cells) != 3 {
		t.Fatalf("ConeCells(G1) = %v, want all 3 cells", cells)
	}
	g0, _ := c.NetByName("G2")
	cells2 := c.ConeCells(g0)
	// G2 only feeds G13 which is D of G7 (index 2).
	if len(cells2) != 1 || cells2[0] != 2 {
		t.Errorf("ConeCells(G2) = %v, want [2]", cells2)
	}
}

func TestConeOutputs(t *testing.T) {
	c := buildS27Like(t)
	g5, _ := c.NetByName("G5")
	outs := c.ConeOutputs(g5)
	if len(outs) != 1 || c.Nets[outs[0]].Name != "G17" {
		t.Errorf("ConeOutputs(G5) = %v, want [G17]", outs)
	}
	g2, _ := c.NetByName("G2")
	if outs := c.ConeOutputs(g2); len(outs) != 0 {
		t.Errorf("ConeOutputs(G2) = %v, want none", outs)
	}
}

func TestStats(t *testing.T) {
	c := buildS27Like(t)
	s := c.Stats()
	if s.Gates != 10 || s.DFFs != 3 || s.Inputs != 4 || s.Outputs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByOp[logic.OpNor] != 4 {
		t.Errorf("NOR count = %d, want 4", s.ByOp[logic.OpNor])
	}
	if !strings.Contains(s.String(), "s27ish") {
		t.Errorf("Stats.String() = %q", s.String())
	}
}

func TestBuildErrorUndrivenNet(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a").Output("z")
	b.Gate("z", logic.OpAnd, "a", "ghost")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("expected undriven-net error mentioning ghost, got %v", err)
	}
}

func TestBuildErrorDoubleDrive(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a").Input("b").Output("z")
	b.Gate("z", logic.OpAnd, "a", "b")
	b.Gate("z", logic.OpOr, "a", "b")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "driven twice") {
		t.Errorf("expected double-drive error, got %v", err)
	}
}

func TestBuildErrorCombinationalCycle(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a").Output("x")
	b.Gate("x", logic.OpAnd, "a", "y")
	b.Gate("y", logic.OpOr, "x", "a")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestSequentialLoopIsLegal(t *testing.T) {
	// A cycle through a DFF is a perfectly ordinary state machine.
	b := NewBuilder("counter")
	b.Input("en").Output("q")
	b.DFF("q", "nq")
	b.Gate("nq", logic.OpXor, "q", "en")
	if _, err := b.Build(); err != nil {
		t.Errorf("sequential loop rejected: %v", err)
	}
}

func TestBuildErrorBadFanInCount(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a").Input("b").Output("z")
	b.Gate("z", logic.OpNot, "a", "b")
	if _, err := b.Build(); err == nil {
		t.Error("2-input NOT accepted")
	}
	b2 := NewBuilder("bad2")
	b2.Input("a").Output("z")
	b2.Gate("z", logic.OpXor, "a")
	if _, err := b2.Build(); err == nil {
		t.Error("1-input XOR accepted")
	}
}

func TestBuildErrorUndeclaredOutput(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a").Output("missing")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("expected undeclared-output error, got %v", err)
	}
}

func TestBuildErrorNonCombinationalGateOp(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a").Output("z")
	b.Gate("z", logic.OpDFF, "a")
	if _, err := b.Build(); err == nil {
		t.Error("Gate with OpDFF accepted")
	}
}

func TestForwardReferences(t *testing.T) {
	// Gates may reference nets declared later (common in .bench files).
	b := NewBuilder("fwd")
	b.Input("a").Output("z")
	b.Gate("z", logic.OpNot, "mid")
	b.Gate("mid", logic.OpBuf, "a")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.NumGates() != 2 {
		t.Errorf("gates = %d, want 2", c.NumGates())
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestFaninCone(t *testing.T) {
	c := buildS27Like(t)
	// Cell 2 is DFF G7 with D = G13 = NOR(G2, G12); G12 = NOR(G1, G7).
	cone := c.FaninCone(2)
	names := map[string]bool{}
	for _, id := range cone {
		names[c.Nets[id].Name] = true
	}
	for _, want := range []string{"G13", "G2", "G12", "G1", "G7"} {
		if !names[want] {
			t.Errorf("fan-in cone of cell 2 missing %s (got %v)", want, keys(names))
		}
	}
	if names["G3"] || names["G8"] {
		t.Errorf("fan-in cone of cell 2 includes unrelated logic: %v", keys(names))
	}
}

func TestSuspectRegionContainsFaultSite(t *testing.T) {
	c := buildS27Like(t)
	// A fault on G12 reaches cells 0, 1 and 2 (via G15/G9/G11 and G13).
	g12, _ := c.NetByName("G12")
	cells := c.ConeCells(g12)
	region := c.SuspectRegion(cells)
	found := false
	for _, id := range region {
		if id == g12 {
			found = true
		}
	}
	if !found {
		t.Errorf("suspect region %d nets does not contain the fault site", len(region))
	}
	// The region must be a strict subset of the whole netlist.
	if len(region) >= c.NumNets() {
		t.Error("suspect region did not narrow anything")
	}
	if c.SuspectRegion(nil) != nil {
		t.Error("empty failing set should yield nil region")
	}
}

package circuit_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// TestNetByNameConcurrent resolves every net name of a circuit from many
// goroutines at once, so the name index built on the first call is raced
// by all of them (run under -race). It covers a generated circuit, whose
// Builder never built a name map, and a Raw one.
func TestNetByNameConcurrent(t *testing.T) {
	gen := benchgen.MustGenerate("s953")
	raw := circuit.Raw("raw", slices.Clone(gen.Nets), gen.Inputs, gen.Outputs, gen.DFFs)
	for _, c := range []*circuit.Circuit{gen, raw} {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range c.Nets {
					id := circuit.NetID((k + g*31) % len(c.Nets))
					if got, ok := c.NetByName(c.Nets[id].Name); !ok || got != id {
						t.Errorf("%s: NetByName(%q) = %d, %v; want %d", c.Name, c.Nets[id].Name, got, ok, id)
						return
					}
				}
				if _, ok := c.NetByName("no such net"); ok {
					t.Errorf("%s: NetByName found a net that does not exist", c.Name)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestDFFIndexOutOfRangeOnRaw: DFFIndex answers -1 for any ID that is
// not a net of the circuit, and a Raw DFF list entry that points outside
// the netlist is not indexed.
func TestDFFIndexOutOfRangeOnRaw(t *testing.T) {
	nets := []circuit.Net{
		{Name: "a", Op: logic.OpInput},
		{Name: "q", Op: logic.OpDFF, Fanin: []circuit.NetID{0}},
	}
	c := circuit.Raw("raw", nets, []circuit.NetID{0}, []circuit.NetID{1}, []circuit.NetID{7, 1, -2})
	for _, tc := range []struct {
		id   circuit.NetID
		want int
	}{{-1, -1}, {-2, -1}, {0, -1}, {1, 1}, {2, -1}, {7, -1}, {1 << 20, -1}} {
		if got := c.DFFIndex(tc.id); got != tc.want {
			t.Errorf("DFFIndex(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

// TestReservedNeverDriven: a net numbered through the NetID core but never
// given a gate fails Build like an undriven forward reference does.
func TestReservedNeverDriven(t *testing.T) {
	b := circuit.NewBuilder("bad")
	a := b.Reserve("a")
	b.Drive(a, logic.OpInput)
	ghost := b.Reserve("ghost")
	z := b.Reserve("z")
	b.Drive(z, logic.OpAnd, a, ghost)
	b.MarkOutput(z)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), `net "ghost" referenced but never driven`) {
		t.Errorf("expected undriven-net error naming ghost, got %v", err)
	}
}

// TestDriveRejectsMalformedGates: the NetID core validates what it is
// given, as the name front-end does.
func TestDriveRejectsMalformedGates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(b *circuit.Builder)
		want  string
	}{
		{"twice", func(b *circuit.Builder) {
			a := b.Reserve("a")
			b.Drive(a, logic.OpInput)
			b.Drive(a, logic.OpInput)
		}, "driven twice"},
		{"arity", func(b *circuit.Builder) {
			a := b.Reserve("a")
			b.Drive(a, logic.OpInput)
			b.Drive(b.Reserve("z"), logic.OpNot, a, a)
		}, "allows at most 1"},
		{"op", func(b *circuit.Builder) {
			b.Drive(b.Reserve("z"), logic.OpInvalid)
		}, "drives nothing"},
		{"unreserved-net", func(b *circuit.Builder) {
			b.Drive(3, logic.OpInput)
		}, "unreserved net 3"},
		{"unreserved-fanin", func(b *circuit.Builder) {
			b.Drive(b.Reserve("z"), logic.OpBuf, 9)
		}, "reads unreserved net 9"},
		{"unreserved-output", func(b *circuit.Builder) {
			b.Drive(b.Reserve("a"), logic.OpInput)
			b.MarkOutput(-1)
		}, "output names unreserved net -1"},
		{"empty-name", func(b *circuit.Builder) {
			b.Reserve("")
		}, "empty net name"},
	} {
		b := circuit.NewBuilder("bad")
		tc.build(b)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: expected error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestCoreAndNamesNumberAlike: a netlist built through the NetID core and
// the same netlist built by name, forward references included, get the
// same NetIDs, fan-ins, outputs and scan order.
func TestCoreAndNamesNumberAlike(t *testing.T) {
	byName := circuit.NewBuilder("m")
	byName.Input("a").Output("z")
	byName.Gate("z", logic.OpNand, "q", "a", "q")
	byName.DFF("q", "z")
	want, err := byName.Build()
	if err != nil {
		t.Fatal(err)
	}

	core := circuit.NewBuilder("m")
	a := core.Reserve("a")
	core.Drive(a, logic.OpInput)
	z := core.Reserve("z")
	q := core.Reserve("q")
	core.MarkOutput(z)
	core.Drive(z, logic.OpNand, q, a, q)
	core.Drive(q, logic.OpDFF, z)
	got, err := core.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nets) != len(want.Nets) {
		t.Fatalf("%d nets, want %d", len(got.Nets), len(want.Nets))
	}
	for id := range want.Nets {
		g, w := got.Nets[id], want.Nets[id]
		if g.Name != w.Name || g.Op != w.Op || !slices.Equal(g.Fanin, w.Fanin) {
			t.Errorf("net %d: %+v, want %+v", id, g, w)
		}
		if !slices.Equal(got.Fanout(circuit.NetID(id)), want.Fanout(circuit.NetID(id))) {
			t.Errorf("net %d: fan-out %v, want %v", id, got.Fanout(circuit.NetID(id)), want.Fanout(circuit.NetID(id)))
		}
	}
	for _, l := range [][2][]circuit.NetID{{got.Inputs, want.Inputs}, {got.Outputs, want.Outputs}, {got.DFFs, want.DFFs}} {
		if !slices.Equal(l[0], l[1]) {
			t.Errorf("list %v, want %v", l[0], l[1])
		}
	}
}

// TestFanoutAscendingByReader: fan-out lists read in ascending reader
// NetID order, a gate that reads a net twice appears twice, and a net
// nobody reads has an empty list.
func TestFanoutAscendingByReader(t *testing.T) {
	c := benchgen.MustGenerate("s1423")
	readers := make([][]circuit.NetID, len(c.Nets))
	for id, n := range c.Nets {
		for _, f := range n.Fanin {
			readers[f] = append(readers[f], circuit.NetID(id))
		}
	}
	for id := range c.Nets {
		if got := c.Fanout(circuit.NetID(id)); !slices.Equal(got, readers[id]) {
			t.Fatalf("Fanout(%d) = %v, want %v", id, got, readers[id])
		}
	}
}

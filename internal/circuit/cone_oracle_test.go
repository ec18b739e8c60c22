package circuit_test

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// The map-based fan-out walk the stamped walk replaced, kept as the
// reference the production queries are pinned to. It reads only the
// circuit's public structure.

func refFanoutCone(c *circuit.Circuit, start circuit.NetID) []circuit.NetID {
	seen := make(map[circuit.NetID]bool)
	stack := []circuit.NetID{start}
	var cone []circuit.NetID
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		cone = append(cone, id)
		if c.Nets[id].Op == logic.OpDFF && id != start {
			continue
		}
		stack = append(stack, c.Fanout(id)...)
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	return cone
}

// refCone returns the reference Cone summary plus the ConeOutputs answer
// (distinct output nets of the cone in NetID order).
func refCone(c *circuit.Circuit, start circuit.NetID) (*circuit.Cone, []circuit.NetID) {
	nets := refFanoutCone(c, start)
	inCone := make(map[circuit.NetID]bool)
	for _, id := range nets {
		inCone[id] = true
	}
	cone := &circuit.Cone{Nets: nets}
	for i, id := range c.DFFs {
		if inCone[c.Nets[id].Fanin[0]] {
			cone.Cells = append(cone.Cells, i)
		}
	}
	isOut := make(map[circuit.NetID]bool, len(c.Outputs))
	for i, id := range c.Outputs {
		if inCone[id] {
			cone.POs = append(cone.POs, i)
		}
		isOut[id] = true
	}
	var outs []circuit.NetID
	for _, id := range nets {
		if isOut[id] {
			outs = append(outs, id)
		}
	}
	return cone, outs
}

var oracleProfiles = []string{"s27", "s298", "s953", "s5378", "s13207"}

// TestConeMatchesUnmemoizedQueries pins the memoized Cone summary and the
// per-call FanoutCone/ConeCells/ConeOutputs queries to the map-based
// reference walk for every net of several generated profiles, and checks
// that repeated calls return the shared copy.
func TestConeMatchesUnmemoizedQueries(t *testing.T) {
	for _, name := range oracleProfiles {
		if testing.Short() && name == "s13207" {
			continue
		}
		c := benchgen.MustGenerate(name)
		for id := circuit.NetID(0); int(id) < c.NumNets(); id++ {
			want, wantOuts := refCone(c, id)
			cone := c.Cone(id)
			if !slices.Equal(cone.Nets, want.Nets) || !slices.Equal(cone.Cells, want.Cells) || !slices.Equal(cone.POs, want.POs) {
				t.Fatalf("%s: Cone(%d) = %+v, reference %+v", name, id, *cone, *want)
			}
			if got := c.FanoutCone(id); !slices.Equal(got, want.Nets) {
				t.Fatalf("%s: FanoutCone(%d) = %v, reference %v", name, id, got, want.Nets)
			}
			if got := c.ConeCells(id); !slices.Equal(got, want.Cells) {
				t.Fatalf("%s: ConeCells(%d) = %v, reference %v", name, id, got, want.Cells)
			}
			if got := c.ConeOutputs(id); !slices.Equal(got, wantOuts) {
				t.Fatalf("%s: ConeOutputs(%d) = %v, reference %v", name, id, got, wantOuts)
			}
			if again := c.Cone(id); again != cone {
				t.Fatalf("%s: Cone(%d) recomputed instead of returning the memoized copy", name, id)
			}
		}
	}
}

// TestConeConcurrentWalks computes every cone of a fresh circuit from
// several goroutines at once, each visiting the sites in its own order, so
// pooled walk state is exercised concurrently (run under -race).
func TestConeConcurrentWalks(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	n := c.NumNets()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				id := circuit.NetID((k*(2*g+1) + g*97) % n)
				if g%2 == 1 {
					id = circuit.NetID(n - 1 - int(id))
				}
				var got []int
				if g < 2 {
					got = c.Cone(id).Cells
				} else {
					got = c.ConeCells(id)
				}
				if want, _ := refCone(c, id); !slices.Equal(got, want.Cells) {
					t.Errorf("goroutine %d: cells of %d = %v, reference %v", g, id, got, want.Cells)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

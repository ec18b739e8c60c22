// Package circuit models a gate-level sequential netlist in the style of
// the ISCAS-89 benchmarks: primary inputs, primary outputs, D flip-flops,
// and combinational gates over named nets. It provides construction with
// validation, levelized topological ordering for compiled simulation, and
// structural fan-out cones, which determine the set of scan cells a fault
// can reach (the paper's "fault cone").
package circuit

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// NetID indexes a net (equivalently, its driving gate) within a Circuit.
type NetID int32

// Net is a named signal and the gate driving it. For a primary input the Op
// is logic.OpInput and Fanin is empty; for a flip-flop output the Op is
// logic.OpDFF and Fanin holds the single D input net.
type Net struct {
	Name  string
	Op    logic.Op
	Fanin []NetID
}

// Circuit is an immutable, validated netlist. Build one with a Builder.
type Circuit struct {
	Name    string
	Nets    []Net
	Inputs  []NetID // primary inputs in declaration order
	Outputs []NetID // primary outputs in declaration order
	DFFs    []NetID // flip-flop output nets in declaration order

	topo     []NetID // combinational gates in evaluation order
	maxFanin int     // largest fan-in of a combinational gate
	// Fan-out of net id is fanoutArena[fanoutOff[id]:fanoutOff[id+1]].
	fanoutOff   []int32
	fanoutArena []NetID
	dffIdx      []int32 // per net: 1 + position in DFFs, 0 for other nets
	levelOf     []int32 // per-net level; inputs and DFF outputs are level 0
	cones       []atomic.Pointer[Cone]
	walks       sync.Pool // of *coneWalk
	// Output positions: poFirst[id] is 1 + the first position of net id
	// in Outputs (0 for other nets), poNext[pos] 1 + the next position
	// declaring the same net (0 after the last).
	poFirst []int32
	poNext  []int32

	nameOnce sync.Once
	byName   map[string]NetID // built on the first NetByName
}

// Raw assembles a Circuit directly from its structural fields, bypassing
// the Builder's validation: duplicate names, dangling fan-in references,
// undriven nets, and combinational cycles are all accepted as-is. Derived
// data (levels, topological order, cones) is computed on a best-effort
// basis and left absent when the structure does not admit it, in which case
// Validated reports false and the levelized accessors must not be used.
//
// Raw exists for the design-rule checker (internal/drc) and its tests:
// DRC inspects exactly the malformed netlists the Builder would reject.
// Simulation and diagnosis require a Builder-validated circuit.
func Raw(name string, nets []Net, inputs, outputs, dffs []NetID) *Circuit {
	c := &Circuit{
		Name:    name,
		Nets:    nets,
		Inputs:  inputs,
		Outputs: outputs,
		DFFs:    dffs,
	}
	c.indexDFFs()
	for id := range nets {
		for _, f := range nets[id].Fanin {
			if f < 0 || int(f) >= len(nets) {
				return c // dangling reference: finish() would index out of range
			}
		}
	}
	if err := c.finish(); err != nil {
		c.topo, c.fanoutOff, c.fanoutArena, c.levelOf, c.cones, c.maxFanin = nil, nil, nil, nil, nil, 0
	}
	return c
}

// Validated reports whether the derived structure (levels, topological
// order, cones) was successfully computed — true for every Builder-built
// circuit, and for Raw circuits only when the netlist happens to be
// well-formed. Level, TopoOrder, Fanout, and Cone must not be called when
// Validated is false.
func (c *Circuit) Validated() bool { return c.topo != nil }

// NumNets returns the total number of nets.
func (c *Circuit) NumNets() int { return len(c.Nets) }

// NumGates returns the number of combinational gates (excludes primary
// inputs and flip-flops).
func (c *Circuit) NumGates() int { return len(c.topo) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.Inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.Outputs) }

// NumDFFs returns the number of flip-flops.
func (c *Circuit) NumDFFs() int { return len(c.DFFs) }

// NetByName resolves a net name; ok is false when it does not exist. The
// name index is built on the first call, so circuits that are never
// searched by name do not pay for it. When names repeat (possible only in
// a Raw circuit) the highest NetID wins.
func (c *Circuit) NetByName(name string) (NetID, bool) {
	c.nameOnce.Do(func() {
		c.byName = make(map[string]NetID, len(c.Nets))
		for id := range c.Nets {
			c.byName[c.Nets[id].Name] = NetID(id)
		}
	})
	id, ok := c.byName[name]
	return id, ok
}

// TopoOrder returns the combinational gates in a valid evaluation order:
// every gate appears after all of its combinational fan-in. The returned
// slice is shared; callers must not modify it.
func (c *Circuit) TopoOrder() []NetID { return c.topo }

// MaxFanin returns the largest fan-in of any combinational gate, and 0
// for a circuit without gates.
func (c *Circuit) MaxFanin() int { return c.maxFanin }

// Level returns the combinational level of a net: 0 for primary inputs and
// flip-flop outputs, 1+max(level of fan-in) for gates.
func (c *Circuit) Level(id NetID) int { return int(c.levelOf[id]) }

// Depth returns the maximum combinational level in the circuit.
func (c *Circuit) Depth() int {
	d := 0
	for _, l := range c.levelOf {
		if int(l) > d {
			d = int(l)
		}
	}
	return d
}

// Fanout returns the nets directly driven by id. The slice is shared;
// callers must not modify it.
func (c *Circuit) Fanout(id NetID) []NetID {
	lo, hi := c.fanoutOff[id], c.fanoutOff[id+1]
	return c.fanoutArena[lo:hi:hi]
}

// DFFIndex returns the scan-order index of a flip-flop output net, or -1 if
// the net is not a flip-flop output or id is not a net of the circuit.
func (c *Circuit) DFFIndex(id NetID) int {
	if id < 0 || int(id) >= len(c.dffIdx) {
		return -1
	}
	return int(c.dffIdx[id]) - 1
}

// OutputPos returns the first position of id within Outputs, or -1 when
// id is not a primary output. A net declared as an output more than once
// has its later positions chained through NextOutputPos, so
//
//	for pos := c.OutputPos(id); pos >= 0; pos = c.NextOutputPos(pos)
//
// visits every position of id in ascending order. Like Fanout, it must
// not be called when Validated is false.
func (c *Circuit) OutputPos(id NetID) int { return int(c.poFirst[id]) - 1 }

// NextOutputPos returns the next position within Outputs after pos that
// declares the same net, or -1 after the last.
func (c *Circuit) NextOutputPos(pos int) int { return int(c.poNext[pos]) - 1 }

// FanoutCone returns every net reachable from start (inclusive) by
// following gate connectivity without passing through a flip-flop: this is
// the combinational output cone of the net. Flip-flop output nets reached
// via their D input are included as frontier nodes but not expanded, since
// an error stops there until the next clock.
func (c *Circuit) FanoutCone(start NetID) []NetID {
	w := c.getWalk()
	defer c.walks.Put(w)
	return c.fanoutWalk(w, start)
}

// ConeCells returns the scan-order indices of the flip-flops whose D inputs
// lie in the combinational fan-out cone of start: exactly the cells that can
// capture an error caused by a fault on start within one capture cycle.
// A flip-flop whose output is start itself is included when its own D input
// is reachable (a state self-loop).
func (c *Circuit) ConeCells(start NetID) []int {
	w := c.getWalk()
	defer c.walks.Put(w)
	c.fanoutWalk(w, start)
	return c.walkCells(w)
}

// Cone is the memoized reachability summary of one fault site: the nets of
// its combinational fan-out cone, the scan cells that can capture an error
// originating there, and the primary outputs it can reach. Cones are
// computed lazily on first request and shared; treat every field as
// read-only.
type Cone struct {
	// Nets is the combinational fan-out cone of the site (inclusive),
	// sorted by NetID.
	Nets []NetID
	// Cells holds the scan-order indices of flip-flops whose D input lies
	// in the cone — exactly the cells a fault on the site can corrupt in
	// one capture cycle.
	Cells []int
	// POs holds the positions within Circuit.Outputs whose net lies in the
	// cone.
	POs []int
}

// Cone returns the memoized fan-out cone summary of a fault site. The first
// call per site computes it; later calls (from any goroutine) return the
// shared copy. Concurrent first calls may race to compute, but the value is
// deterministic so whichever store wins is identical.
func (c *Circuit) Cone(start NetID) *Cone {
	if cone := c.cones[start].Load(); cone != nil {
		return cone
	}
	w := c.getWalk()
	cone := &Cone{Nets: c.fanoutWalk(w, start), Cells: c.walkCells(w)}
	for i, id := range c.Outputs {
		if w.visited(id) {
			cone.POs = append(cone.POs, i)
		}
	}
	c.walks.Put(w)
	c.cones[start].Store(cone)
	return c.cones[start].Load()
}

// coneWalk is the reusable state of one fan-out walk: a per-net visit
// stamp (a net belongs to the current walk's cone iff its mark equals
// epoch, so starting a walk clears nothing) and the DFS stack. Walks come
// from the circuit's pool, so concurrent Cone calls never share one.
type coneWalk struct {
	mark  []uint32
	epoch uint32
	stack []NetID
}

func (w *coneWalk) visited(id NetID) bool { return w.mark[id] == w.epoch }

// getWalk takes a walk from the pool and opens a fresh epoch on it.
func (c *Circuit) getWalk() *coneWalk {
	w, _ := c.walks.Get().(*coneWalk)
	if w == nil {
		w = &coneWalk{mark: make([]uint32, len(c.Nets))}
	}
	w.epoch++
	if w.epoch == 0 {
		clear(w.mark)
		w.epoch = 1
	}
	return w
}

// fanoutWalk stamps start's combinational fan-out cone into w and returns
// its nets in ascending order.
func (c *Circuit) fanoutWalk(w *coneWalk, start NetID) []NetID {
	var cone []NetID
	w.mark[start] = w.epoch
	w.stack = append(w.stack[:0], start)
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		cone = append(cone, id)
		if c.Nets[id].Op == logic.OpDFF && id != start {
			continue // error is captured; do not cross the register
		}
		for _, succ := range c.Fanout(id) {
			if !w.visited(succ) {
				w.mark[succ] = w.epoch
				w.stack = append(w.stack, succ)
			}
		}
	}
	slices.Sort(cone)
	return cone
}

// walkCells returns, in scan order, the flip-flops whose D input the last
// walk on w stamped.
func (c *Circuit) walkCells(w *coneWalk) []int {
	var cells []int
	for i, id := range c.DFFs {
		if w.visited(c.Nets[id].Fanin[0]) {
			cells = append(cells, i)
		}
	}
	return cells
}

// FaninCone returns every net the cell's captured value combinationally
// depends on: the support region of scan cell i (its D input, the gates
// feeding it, and the primary inputs / flip-flop outputs at the frontier).
// A fault observed at cell i must lie in this cone.
func (c *Circuit) FaninCone(cell int) []NetID {
	seen := make(map[NetID]bool)
	stack := []NetID{c.Nets[c.DFFs[cell]].Fanin[0]}
	var cone []NetID
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		cone = append(cone, id)
		if !c.Nets[id].Op.Combinational() {
			continue // stop at primary inputs and flip-flop outputs
		}
		stack = append(stack, c.Nets[id].Fanin...)
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i] < cone[j] })
	return cone
}

// SuspectRegion intersects the fan-in cones of the given scan cells: under
// a single-fault assumption a defect observed at every one of these cells
// must lie in the returned net set. It is the structural (dictionary-free)
// defect localisation step that follows failing-cell identification.
func (c *Circuit) SuspectRegion(failingCells []int) []NetID {
	if len(failingCells) == 0 {
		return nil
	}
	counts := make(map[NetID]int)
	for _, cell := range failingCells {
		for _, id := range c.FaninCone(cell) {
			counts[id]++
		}
	}
	var region []NetID
	for id, n := range counts {
		if n == len(failingCells) {
			region = append(region, id)
		}
	}
	sort.Slice(region, func(i, j int) bool { return region[i] < region[j] })
	return region
}

// ConeOutputs returns the distinct primary output nets in the
// combinational fan-out cone of start, in ascending NetID order.
func (c *Circuit) ConeOutputs(start NetID) []NetID {
	w := c.getWalk()
	defer c.walks.Put(w)
	c.fanoutWalk(w, start)
	var outs []NetID
	for _, o := range c.Outputs {
		if w.visited(o) {
			outs = append(outs, o)
		}
	}
	slices.Sort(outs)
	return slices.Compact(outs)
}

// Stats summarises the structural composition of a circuit.
type Stats struct {
	Name    string
	Inputs  int
	Outputs int
	DFFs    int
	Gates   int
	Depth   int
	ByOp    map[logic.Op]int
}

// Stats computes structural statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Name:    c.Name,
		Inputs:  c.NumInputs(),
		Outputs: c.NumOutputs(),
		DFFs:    c.NumDFFs(),
		Gates:   c.NumGates(),
		Depth:   c.Depth(),
		ByOp:    make(map[logic.Op]int),
	}
	for _, id := range c.topo {
		s.ByOp[c.Nets[id].Op]++
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates, depth %d",
		s.Name, s.Inputs, s.Outputs, s.DFFs, s.Gates, s.Depth)
}

package circuit

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/logic"
)

// Builder assembles a Circuit incrementally. Declaration order of inputs,
// outputs, and flip-flops is preserved; flip-flop declaration order is the
// default scan-chain order. Errors are accumulated and reported by Build,
// so construction code can stay free of per-call error plumbing.
//
// Construction has one core keyed by NetID: Reserve numbers a net, Drive
// gives it its gate, MarkOutput lists it as a primary output. Nets are
// numbered in Reserve order. The name-based calls the netlist parsers use
// (Input, Output, DFF, Gate) are a front-end over that core: they resolve
// each name to its NetID, reserving a net the first time a name is seen,
// so a forward reference is numbered where it first appears.
type Builder struct {
	name    string
	nets    []Net
	inputs  []NetID
	outputs []outputRef
	dffs    []NetID
	arena   []NetID // current block of the fan-in arena
	errs    []error

	// Name front-end state, created on its first use.
	byName map[string]NetID
	fanin  []NetID // scratch for resolving one gate's fan-in names
}

// outputRef is one primary output in declaration order: a NetID from
// MarkOutput, or a name from Output that Build resolves.
type outputRef struct {
	id   NetID
	name string
}

// faninChunk is the minimum size, in NetIDs, of one fan-in arena block.
const faninChunk = 4096

// NewBuilder returns an empty Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("circuit %q: "+format, append([]any{b.name}, args...)...))
}

// Grow reserves room for n more nets, so a caller that knows the netlist
// size up front builds it without reallocating.
func (b *Builder) Grow(n int) {
	b.nets = slices.Grow(b.nets, n)
}

// Reserve adds an undriven net named name and returns its NetID. The net
// must be given its gate by Drive before Build. The core does not check
// that names are unique; the name front-end does, and a caller using the
// core directly must name its nets uniquely.
func (b *Builder) Reserve(name string) NetID {
	if name == "" {
		b.errorf("empty net name")
		return -1
	}
	id := NetID(len(b.nets))
	b.nets = append(b.nets, Net{Name: name})
	if b.byName != nil {
		b.byName[name] = id
	}
	return id
}

// Drive gives the reserved net id its gate: op over fanin. An OpInput net
// becomes the next primary input and an OpDFF net the next flip-flop.
// fanin is copied, so the caller may reuse it.
func (b *Builder) Drive(id NetID, op logic.Op, fanin ...NetID) {
	if id < 0 || int(id) >= len(b.nets) {
		b.errorf("drive of unreserved net %d", id)
		return
	}
	n := &b.nets[id]
	if n.Op != logic.OpInvalid {
		b.errorf("net %q driven twice", n.Name)
		return
	}
	if op != logic.OpInput && op != logic.OpDFF && !op.Combinational() {
		b.errorf("net %q uses op %v, which drives nothing", n.Name, op)
		return
	}
	if !b.arityOK(n.Name, op, len(fanin)) {
		return
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(b.nets) {
			b.errorf("net %q reads unreserved net %d", n.Name, f)
			return
		}
	}
	n.Op = op
	n.Fanin = b.store(fanin)
	switch op {
	case logic.OpInput:
		b.inputs = append(b.inputs, id)
	case logic.OpDFF:
		b.dffs = append(b.dffs, id)
	}
}

// MarkOutput declares net id a primary output. The net may be driven
// later.
func (b *Builder) MarkOutput(id NetID) {
	if id < 0 || int(id) >= len(b.nets) {
		b.errorf("output names unreserved net %d", id)
		return
	}
	b.outputs = append(b.outputs, outputRef{id: id})
}

func (b *Builder) arityOK(name string, op logic.Op, n int) bool {
	if min := op.MinInputs(); n < min {
		b.errorf("gate %q (%v) has %d inputs, needs at least %d", name, op, n, min)
		return false
	}
	if max := op.MaxInputs(); max >= 0 && n > max {
		b.errorf("gate %q (%v) has %d inputs, allows at most %d", name, op, n, max)
		return false
	}
	return true
}

// store copies fanin into the arena and returns the copy, capped so an
// append by a caller cannot overwrite the next net's fan-in.
func (b *Builder) store(fanin []NetID) []NetID {
	if len(fanin) == 0 {
		return nil
	}
	if cap(b.arena)-len(b.arena) < len(fanin) {
		b.arena = make([]NetID, 0, max(faninChunk, len(fanin)))
	}
	start := len(b.arena)
	b.arena = append(b.arena, fanin...)
	return b.arena[start:len(b.arena):len(b.arena)]
}

// names returns the front-end's name index, building it on first use;
// Reserve keeps it current from then on.
func (b *Builder) names() map[string]NetID {
	if b.byName == nil {
		b.byName = make(map[string]NetID, len(b.nets))
		for id := range b.nets {
			b.byName[b.nets[id].Name] = NetID(id)
		}
	}
	return b.byName
}

// net resolves a name for the front-end, reserving it on first sight.
func (b *Builder) net(name string) NetID {
	if id, ok := b.names()[name]; ok {
		return id
	}
	return b.Reserve(name)
}

// driveNamed resolves the fan-in names of net id and drives it.
func (b *Builder) driveNamed(id NetID, op logic.Op, fanin []string) {
	ids := b.fanin[:0]
	for _, f := range fanin {
		if f == "" {
			b.errorf("gate %q has empty fan-in name", b.nets[id].Name)
			return
		}
		ids = append(ids, b.net(f))
	}
	b.fanin = ids
	b.Drive(id, op, ids...)
}

// Input declares a primary input net.
func (b *Builder) Input(name string) *Builder {
	if id := b.net(name); id >= 0 {
		b.Drive(id, logic.OpInput)
	}
	return b
}

// Output declares a primary output. The named net may be driven later.
func (b *Builder) Output(name string) *Builder {
	if name == "" {
		b.errorf("empty output name")
		return b
	}
	b.outputs = append(b.outputs, outputRef{id: -1, name: name})
	return b
}

// DFF declares a flip-flop whose output net is name and whose D input is d.
func (b *Builder) DFF(name, d string) *Builder {
	if id := b.net(name); id >= 0 {
		b.driveNamed(id, logic.OpDFF, []string{d})
	}
	return b
}

// Gate declares a combinational gate driving net name.
func (b *Builder) Gate(name string, op logic.Op, fanin ...string) *Builder {
	if !op.Combinational() {
		b.errorf("gate %q uses non-combinational op %v", name, op)
		return b
	}
	if !b.arityOK(name, op, len(fanin)) {
		return b
	}
	if id := b.net(name); id >= 0 {
		b.driveNamed(id, op, fanin)
	}
	return b
}

// Build validates the accumulated netlist and returns the immutable
// Circuit. It fails if any net is referenced but never driven, any output
// is undeclared, or the combinational logic contains a cycle.
func (b *Builder) Build() (*Circuit, error) {
	for _, n := range b.nets {
		if n.Op == logic.OpInvalid {
			b.errorf("net %q referenced but never driven", n.Name)
		}
	}
	c := &Circuit{
		Name:    b.name,
		Nets:    b.nets,
		Inputs:  b.inputs,
		DFFs:    b.dffs,
		Outputs: make([]NetID, 0, len(b.outputs)),
	}
	for _, o := range b.outputs {
		id := o.id
		if o.name != "" {
			var ok bool
			if id, ok = b.names()[o.name]; !ok {
				b.errorf("output %q names an undeclared net", o.name)
				continue
			}
		}
		c.Outputs = append(c.Outputs, id)
	}
	if len(b.errs) > 0 {
		return nil, joinErrors(b.errs)
	}
	c.indexDFFs()
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// indexDFFs fills the dense net -> scan position index DFFIndex reads.
func (c *Circuit) indexDFFs() {
	c.dffIdx = make([]int32, len(c.Nets))
	for i, id := range c.DFFs {
		if id >= 0 && int(id) < len(c.Nets) {
			c.dffIdx[id] = int32(i) + 1
		}
	}
}

// finish computes fan-out lists, levelization, the topological order and
// the largest gate fan-in.
func (c *Circuit) finish() error {
	c.cones = make([]atomic.Pointer[Cone], len(c.Nets))
	// Fan-out in one arena: count each net's readers, then lay the lists
	// out back to back. Readers are filled in ascending NetID order.
	off := make([]int32, len(c.Nets)+1)
	indeg := make([]int32, len(c.Nets)) // combinational in-degree
	for id := range c.Nets {
		n := &c.Nets[id]
		for _, f := range n.Fanin {
			off[f+1]++
		}
		if n.Op.Combinational() {
			indeg[id] = int32(len(n.Fanin))
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	arena := make([]NetID, off[len(c.Nets)])
	fill := make([]int32, len(c.Nets))
	copy(fill, off)
	for id := range c.Nets {
		for _, f := range c.Nets[id].Fanin {
			arena[fill[f]] = NetID(id)
			fill[f]++
		}
	}
	c.fanoutOff, c.fanoutArena = off, arena
	// Output positions, chained back to front so each chain ascends.
	c.poFirst = make([]int32, len(c.Nets))
	c.poNext = make([]int32, len(c.Outputs))
	for pos := len(c.Outputs) - 1; pos >= 0; pos-- {
		if id := c.Outputs[pos]; id >= 0 && int(id) < len(c.Nets) {
			c.poNext[pos] = c.poFirst[id]
			c.poFirst[id] = int32(pos) + 1
		}
	}
	c.levelOf = make([]int32, len(c.Nets))
	// Kahn's algorithm seeded from structural nets (inputs and DFF outputs).
	queue := make([]NetID, 0, len(c.Nets))
	for id := range c.Nets {
		if !c.Nets[id].Op.Combinational() || indeg[id] == 0 {
			queue = append(queue, NetID(id))
		}
	}
	c.topo = make([]NetID, 0, len(c.Nets))
	visited := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		if c.Nets[id].Op.Combinational() {
			c.topo = append(c.topo, id)
			c.maxFanin = max(c.maxFanin, len(c.Nets[id].Fanin))
			lvl := int32(0)
			for _, f := range c.Nets[id].Fanin {
				if c.levelOf[f] >= lvl {
					lvl = c.levelOf[f] + 1
				}
			}
			c.levelOf[id] = lvl
		}
		for _, succ := range c.Fanout(id) {
			if !c.Nets[succ].Op.Combinational() {
				continue
			}
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if visited != len(c.Nets) {
		var cyc []string
		for id := range c.Nets {
			if c.Nets[id].Op.Combinational() && indeg[id] > 0 {
				cyc = append(cyc, c.Nets[id].Name)
				if len(cyc) == 8 {
					break
				}
			}
		}
		sort.Strings(cyc)
		return fmt.Errorf("circuit %q: combinational cycle involving %v", c.Name, cyc)
	}
	return nil
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:min(len(errs), 10)] {
		msg += "; " + e.Error()
	}
	if len(errs) > 10 {
		msg += fmt.Sprintf(" (and %d more)", len(errs)-10)
	}
	return fmt.Errorf("%s", msg)
}

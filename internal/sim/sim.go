package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// Block carries up to 64 test patterns in transposed (bit-parallel) form:
// bit j of PI[i] is the value of primary input i in pattern j, and bit j of
// State[i] is the value scanned into flip-flop i in pattern j.
type Block struct {
	N     int      // number of valid patterns, 1..64
	PI    []uint64 // one word per primary input
	State []uint64 // one word per flip-flop
}

// Mask returns a word with the N valid pattern bits set.
func (b *Block) Mask() uint64 {
	if b.N >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(b.N) - 1
}

// Response holds the captured values for the patterns of one Block, in the
// same transposed form: bit j of Next[i] is the value flip-flop i captures
// for pattern j.
type Response struct {
	Next []uint64 // one word per flip-flop
	PO   []uint64 // one word per primary output
}

func newResponse(c *circuit.Circuit) *Response {
	return &Response{
		Next: make([]uint64, c.NumDFFs()),
		PO:   make([]uint64, c.NumOutputs()),
	}
}

// Simulator evaluates a circuit over pattern blocks. It is not safe for
// concurrent use; create one per goroutine (construction is cheap).
type Simulator struct {
	c       *circuit.Circuit
	vals    []uint64 // every net's value, allocated by the first full pass (netVals)
	scratch []uint64
}

// New returns a Simulator for c. It allocates only the fan-in scratch:
// the event engine of a FaultSim fork never reads vals.
func New(c *circuit.Circuit) *Simulator {
	return &Simulator{c: c, scratch: make([]uint64, max(c.MaxFanin(), 1))}
}

// netVals returns the per-net value array of the full-pass evaluators,
// allocating it on first use.
func (s *Simulator) netVals() []uint64 {
	if s.vals == nil {
		s.vals = make([]uint64, s.c.NumNets())
	}
	return s.vals
}

// Circuit returns the simulated netlist.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// noFault marks fault-free evaluation.
var noFault = Fault{Net: -1, Gate: -1, Pin: -1}

// Good computes the fault-free response for one block into r.
func (s *Simulator) Good(b *Block, r *Response) {
	s.run(b, noFault, r)
}

// Faulty computes the response for one block with a single stuck-at fault
// injected into r.
func (s *Simulator) Faulty(b *Block, f Fault, r *Response) {
	s.run(b, f, r)
}

func (s *Simulator) run(b *Block, f Fault, r *Response) {
	c := s.c
	if len(b.PI) != c.NumInputs() || len(b.State) != c.NumDFFs() {
		panic(fmt.Sprintf("sim: block shape %d/%d does not match circuit %d/%d",
			len(b.PI), len(b.State), c.NumInputs(), c.NumDFFs()))
	}
	var stuckVal uint64
	if f.Stuck == 1 {
		stuckVal = ^uint64(0)
	}
	vals := s.netVals()

	// Load structural nets.
	for i, id := range c.Inputs {
		vals[id] = b.PI[i]
	}
	for i, id := range c.DFFs {
		vals[id] = b.State[i]
	}
	// A stem fault on a PI or flip-flop output applies before any gate
	// reads it.
	if f.Stem() && f.Net >= 0 && !c.Nets[f.Net].Op.Combinational() {
		vals[f.Net] = stuckVal
	}

	// Evaluate gates in level order. The faulted gate (if any) takes the
	// generic path so the pin force applies; everything else uses the
	// direct 1-/2-input fast paths.
	for _, id := range c.TopoOrder() {
		n := &c.Nets[id]
		var v uint64
		if !f.Stem() && f.Gate == id {
			in := s.scratch[:len(n.Fanin)]
			for k, src := range n.Fanin {
				in[k] = vals[src]
			}
			in[f.Pin] = stuckVal
			v = logic.Eval(n.Op, in)
		} else {
			switch len(n.Fanin) {
			case 1:
				v = logic.Eval1(n.Op, vals[n.Fanin[0]])
			case 2:
				v = logic.Eval2(n.Op, vals[n.Fanin[0]], vals[n.Fanin[1]])
			default:
				in := s.scratch[:len(n.Fanin)]
				for k, src := range n.Fanin {
					in[k] = vals[src]
				}
				v = logic.Eval(n.Op, in)
			}
		}
		if f.Stem() && f.Net == id {
			v = stuckVal
		}
		vals[id] = v
	}

	// Capture: each flip-flop latches its D input; a branch fault on the
	// D connection forces the captured value.
	for i, id := range c.DFFs {
		d := c.Nets[id].Fanin[0]
		v := vals[d]
		if !f.Stem() && f.Gate == id {
			v = stuckVal
		}
		r.Next[i] = v
	}
	for i, id := range c.Outputs {
		r.PO[i] = vals[id]
	}
}

// FaultyMulti computes the response with several simultaneous stuck-at
// faults injected — the paper's multiple-fault scenario, where fault cones
// may overlap into one expanded failing segment or stay disjoint. It is
// map-driven and therefore slower than Faulty; use it for defect studies,
// not for fault-list sweeps.
func (s *Simulator) FaultyMulti(b *Block, faults []Fault, r *Response) {
	if len(faults) == 1 {
		s.run(b, faults[0], r)
		return
	}
	c := s.c
	if len(b.PI) != c.NumInputs() || len(b.State) != c.NumDFFs() {
		panic(fmt.Sprintf("sim: block shape %d/%d does not match circuit %d/%d",
			len(b.PI), len(b.State), c.NumInputs(), c.NumDFFs()))
	}
	stuck := func(v uint8) uint64 {
		if v == 1 {
			return ^uint64(0)
		}
		return 0
	}
	stem := make(map[circuit.NetID]uint64)
	type pinKey struct {
		gate circuit.NetID
		pin  int
	}
	branch := make(map[pinKey]uint64)
	for _, f := range faults {
		if f.Stem() {
			stem[f.Net] = stuck(f.Stuck)
		} else {
			branch[pinKey{f.Gate, f.Pin}] = stuck(f.Stuck)
		}
	}
	vals := s.netVals()

	for i, id := range c.Inputs {
		vals[id] = b.PI[i]
	}
	for i, id := range c.DFFs {
		vals[id] = b.State[i]
	}
	for net, v := range stem {
		if !c.Nets[net].Op.Combinational() {
			vals[net] = v
		}
	}
	for _, id := range c.TopoOrder() {
		n := &c.Nets[id]
		in := s.scratch[:len(n.Fanin)]
		for k, src := range n.Fanin {
			in[k] = vals[src]
			if v, ok := branch[pinKey{id, k}]; ok {
				in[k] = v
			}
		}
		v := logic.Eval(n.Op, in)
		if sv, ok := stem[id]; ok {
			v = sv
		}
		vals[id] = v
	}
	for i, id := range c.DFFs {
		v := vals[c.Nets[id].Fanin[0]]
		if bv, ok := branch[pinKey{id, 0}]; ok {
			v = bv
		}
		r.Next[i] = v
	}
	for i, id := range c.Outputs {
		r.PO[i] = vals[id]
	}
}

// FaultyInto computes the response for one stuck-at fault over all the
// blocks of a fixed pattern set into caller-provided responses, one per
// block — the reuse-friendly variant of FaultSim.Faulty.
func (s *Simulator) FaultyInto(blocks []*Block, f Fault, dst []*Response) {
	if len(dst) != len(blocks) {
		panic(fmt.Sprintf("sim: %d responses for %d blocks", len(dst), len(blocks)))
	}
	for i, b := range blocks {
		s.run(b, f, dst[i])
	}
}

// FaultSim couples a circuit with a fixed pattern set, caching both the
// good captured responses and the fault-free internal net values of every
// block, so each fault costs only an event-driven pass over the nets its
// events change (see incremental.go). The full-pass engine remains available as the
// reference oracle.
type FaultSim struct {
	sim      *Simulator
	blocks   []*Block
	good     []*Response
	goodVals [][]uint64  // per block: fault-free value of every net (read-only, shared by forks)
	inc      *EventState // event-driven scratch, lazily created per fork unless shared (ForkWith)
	tc       *twoCycleCache
	bc       *batchCache // net-major baseline rows for the batch engine, shared by forks
}

// NewFaultSim builds a FaultSim and simulates the fault-free machine once,
// snapshotting the internal net values per block for the event-driven
// engine.
func NewFaultSim(c *circuit.Circuit, blocks []*Block) *FaultSim {
	fs := &FaultSim{sim: New(c), blocks: blocks, tc: &twoCycleCache{}, bc: &batchCache{}}
	for _, b := range blocks {
		r := newResponse(c)
		fs.sim.Good(b, r)
		fs.good = append(fs.good, r)
		gv := make([]uint64, c.NumNets())
		copy(gv, fs.sim.vals)
		fs.goodVals = append(fs.goodVals, gv)
	}
	return fs
}

// Circuit returns the simulated netlist.
func (fs *FaultSim) Circuit() *circuit.Circuit { return fs.sim.c }

// Fork returns a FaultSim sharing this one's blocks, cached fault-free
// responses, and internal net values (all read-only) with its own
// evaluation and event scratch space, so faults can be simulated
// concurrently — one Fork per goroutine.
func (fs *FaultSim) Fork() *FaultSim {
	return &FaultSim{sim: New(fs.sim.c), blocks: fs.blocks, good: fs.good, goodVals: fs.goodVals, tc: fs.tc, bc: fs.bc}
}

// ForkWith is Fork with st as the fork's event scratch instead of one of
// its own, so that forks of several circuits' FaultSims used by one
// goroutine can share one (see EventState). It panics if st is too small
// for the circuit.
func (fs *FaultSim) ForkWith(st *EventState) *FaultSim {
	if !st.fits(fs.sim.c) {
		panic(fmt.Sprintf("sim: event state for %d nets and %d levels is too small for circuit %s",
			len(st.dirtyVal), len(st.levels), fs.sim.c.Name))
	}
	f := fs.Fork()
	f.inc = st
	return f
}

// Blocks returns the pattern blocks.
func (fs *FaultSim) Blocks() []*Block { return fs.blocks }

// NumPatterns returns the total pattern count across blocks.
func (fs *FaultSim) NumPatterns() int {
	n := 0
	for _, b := range fs.blocks {
		n += b.N
	}
	return n
}

// Good returns the cached fault-free response of block i.
func (fs *FaultSim) Good(i int) *Response { return fs.good[i] }

// Faulty simulates fault f over all blocks, returning one response per
// block.
func (fs *FaultSim) Faulty(f Fault) []*Response {
	out := make([]*Response, len(fs.blocks))
	for i, b := range fs.blocks {
		r := newResponse(fs.sim.c)
		fs.sim.Faulty(b, f, r)
		out[i] = r
	}
	return out
}

// Scratch holds the per-worker buffers of the pooled fault loop: the faulty
// responses of one fault (held at fault-free values between runs and
// patched per fault by the event-driven engine), the patch positions to
// undo, and a reusable Result. Obtain one per goroutine from NewScratch and
// pass it to RunInto; the steady state then allocates nothing per fault.
type Scratch struct {
	faulty       []*Response
	base         []*Response // fault-free values faulty is held at between runs
	touchedCells [][]int32   // per block: Next indices patched by the last fault
	touchedPOs   [][]int32   // per block: PO indices patched by the last fault
	res          Result
}

// NewScratch allocates reusable buffers sized for this FaultSim's circuit
// and pattern set, seeding the responses with the fault-free values. The
// scratch is bound to the single-cycle stuck-at baseline; transition-fault
// batches need NewTransitionScratch instead.
func (fs *FaultSim) NewScratch() *Scratch {
	return fs.newScratch(fs.good)
}

// NewTransitionScratch allocates a Scratch held at the two-cycle
// (launch-off-capture) fault-free responses, for materializing transition
// batches. It must not be passed to RunInto, which assumes the stuck-at
// baseline.
func (fs *FaultSim) NewTransitionScratch() *Scratch {
	return fs.newScratch(fs.twoCycle().good)
}

func (fs *FaultSim) newScratch(base []*Response) *Scratch {
	sc := &Scratch{
		faulty:       make([]*Response, len(fs.blocks)),
		base:         base,
		touchedCells: make([][]int32, len(fs.blocks)),
		touchedPOs:   make([][]int32, len(fs.blocks)),
	}
	for i := range sc.faulty {
		r := newResponse(fs.sim.c)
		copy(r.Next, base[i].Next)
		copy(r.PO, base[i].PO)
		sc.faulty[i] = r
	}
	sc.res.FailingCells = bitset.New(fs.sim.c.NumDFFs())
	return sc
}

// Result summarises the effect of one fault over the pattern set.
type Result struct {
	Fault Fault
	// FailingCells holds the scan cells that capture an error on at least
	// one pattern — the ground truth the diagnosis schemes try to recover.
	FailingCells *bitset.Set
	// DetectingPatterns counts patterns on which at least one cell errs.
	DetectingPatterns int
	// POOnly is true when the fault propagates to a primary output on some
	// pattern but never to a scan cell; such faults are invisible to
	// scan-cell diagnosis.
	POOnly bool
	// Faulty holds the faulty responses per block for downstream signature
	// computation.
	Faulty []*Response
}

// Detected reports whether at least one scan cell captures an error.
func (r *Result) Detected() bool { return !r.FailingCells.Empty() }

// Run simulates fault f with the event-driven engine and derives its
// Result. The returned responses are freshly allocated (fault-free values
// patched where the fault's events landed) and safe to retain.
func (fs *FaultSim) Run(f Fault) *Result {
	c := fs.sim.c
	faulty := make([]*Response, len(fs.blocks))
	for i := range faulty {
		r := newResponse(c)
		copy(r.Next, fs.good[i].Next)
		copy(r.PO, fs.good[i].PO)
		faulty[i] = r
	}
	res := &Result{Fault: f, FailingCells: bitset.New(c.NumDFFs()), Faulty: faulty}
	fs.eventRun(f, faulty, nil, res)
	return res
}

// RunReference simulates fault f with the full-pass reference engine — the
// oracle the event-driven Run and RunInto are pinned against bit-for-bit.
func (fs *FaultSim) RunReference(f Fault) *Result {
	return fs.result(f, fs.Faulty(f))
}

// RunMulti simulates several simultaneous faults (a multi-fault defect)
// and derives the combined Result; the Result's Fault field holds the
// first fault.
func (fs *FaultSim) RunMulti(faults []Fault) *Result {
	if len(faults) == 0 {
		panic("sim: RunMulti with no faults")
	}
	resp := make([]*Response, len(fs.blocks))
	for i, b := range fs.blocks {
		r := newResponse(fs.sim.c)
		fs.sim.FaultyMulti(b, faults, r)
		resp[i] = r
	}
	return fs.result(faults[0], resp)
}

// RunInto simulates fault f with the event-driven engine, reusing the
// scratch buffers, and returns the scratch-owned Result — the
// zero-steady-state-allocation variant of Run. The previous fault's patches
// are undone first (O(events), not O(cells)). The Result (including
// FailingCells and Faulty) is only valid until the next RunInto on the same
// Scratch; callers that retain anything must copy.
func (fs *FaultSim) RunInto(f Fault, sc *Scratch) *Result {
	fs.restore(sc)
	sc.res.Fault = f
	sc.res.Faulty = sc.faulty
	fs.eventRun(f, sc.faulty, sc, &sc.res)
	return &sc.res
}

func (fs *FaultSim) result(f Fault, faulty []*Response) *Result {
	res := &Result{
		Fault:        f,
		FailingCells: bitset.New(fs.sim.c.NumDFFs()),
		Faulty:       faulty,
	}
	fs.resultInto(res)
	return res
}

// resultInto derives FailingCells, DetectingPatterns, and POOnly from
// res.Faulty against the cached good responses, reusing res's buffers.
func (fs *FaultSim) resultInto(res *Result) {
	res.FailingCells.Reset()
	res.DetectingPatterns = 0
	poSeen := false
	for bi, b := range fs.blocks {
		mask := b.Mask()
		good, bad := fs.good[bi], res.Faulty[bi]
		var anyErr uint64
		for i := range good.Next {
			diff := (good.Next[i] ^ bad.Next[i]) & mask
			if diff != 0 {
				res.FailingCells.Add(i)
				anyErr |= diff
			}
		}
		res.DetectingPatterns += bits.OnesCount64(anyErr)
		for i := range good.PO {
			if (good.PO[i]^bad.PO[i])&mask != 0 {
				poSeen = true
			}
		}
	}
	res.POOnly = poSeen && res.FailingCells.Empty()
}

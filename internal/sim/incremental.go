package sim

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file implements the event-driven fault simulation engine — the
// default behind FaultSim.Run and FaultSim.RunInto. Instead of
// re-evaluating every gate of every block per fault, it seeds a single
// event at the fault site against the cached fault-free internal net values
// and propagates only through gates whose inputs actually changed, on a
// levelized worklist. The flip-flops and primary outputs an event reaches
// are listed as it reaches them, so capture visits only those: no step
// costs more than the fault's events, and no fan-out cone is walked.
// Scratch reset is O(events) via per-net epoch stamps, and the frontier
// dying early means the fault is simply unexcited on that block. The
// full-pass engine (Faulty, FaultyInto, RunReference) remains the
// reference oracle, pinned bit-for-bit by the equivalence tests.

// EventState is the event-driven engine's reusable scratch: per-net dirty
// values stamped with the epoch that wrote them, scheduling stamps, one
// worklist bucket per combinational level, and the observation points the
// epoch's events reached. A fresh epoch invalidates all stamps at once, so
// nothing is cleared between faults.
//
// Nothing in it is tied to one circuit, so one goroutine may share an
// EventState among forks of several circuits' FaultSims (ForkWith), as an
// SOC worker does across its cores, provided it is sized for the largest:
// a stamp another circuit wrote is below the current epoch and reads as
// clean, the buckets above a circuit's depth stay empty, and the
// wraparound clear covers the whole arrays.
type EventState struct {
	dirtyVal []uint64
	dirtyAt  []uint32
	schedAt  []uint32
	epoch    uint32
	levels   [][]circuit.NetID
	cells    []int32 // scan cells whose D input changed this epoch
	pos      []int32 // Outputs positions whose net changed this epoch
}

// NewEventState allocates event scratch for circuits of at most nets nets
// and at most depth combinational levels.
func NewEventState(nets, depth int) *EventState {
	return &EventState{
		dirtyVal: make([]uint64, nets),
		dirtyAt:  make([]uint32, nets),
		schedAt:  make([]uint32, nets),
		levels:   make([][]circuit.NetID, depth+1),
	}
}

// fits reports whether st is sized for circuit c.
func (st *EventState) fits(c *circuit.Circuit) bool {
	return len(st.dirtyVal) >= c.NumNets() && len(st.levels) > c.Depth()
}

// events returns the FaultSim's event scratch, creating it on first use.
// FaultSims are single-goroutine (Fork per worker), so no locking is
// needed.
func (fs *FaultSim) events() *EventState {
	if fs.inc == nil {
		fs.inc = NewEventState(fs.sim.c.NumNets(), fs.sim.c.Depth())
	}
	return fs.inc
}

// begin opens a new event epoch. On the (rare) uint32 wraparound the stale
// stamps are cleared so they cannot alias the new epoch.
func (st *EventState) begin() {
	st.cells, st.pos = st.cells[:0], st.pos[:0]
	st.epoch++
	if st.epoch == 0 {
		for i := range st.dirtyAt {
			st.dirtyAt[i], st.schedAt[i] = 0, 0
		}
		st.epoch = 1
	}
}

// value reads a net under the current event set: its dirty value if an
// event reached it this epoch, the cached fault-free value otherwise.
func (st *EventState) value(gv []uint64, id circuit.NetID) uint64 {
	if st.dirtyAt[id] == st.epoch {
		return st.dirtyVal[id]
	}
	return gv[id]
}

// mark records a changed net value for this epoch.
func (st *EventState) mark(id circuit.NetID, v uint64) {
	st.dirtyVal[id] = v
	st.dirtyAt[id] = st.epoch
}

// schedule enqueues the combinational readers of a changed net onto their
// level buckets, deduplicated by epoch stamp. Flip-flops reading the net as
// D input are not enqueued: the error stops there until capture, so they
// are listed in cells, as is every output position of the net in pos. A
// net is marked at most once per epoch, and a flip-flop has one D input,
// so neither list repeats an entry.
func (st *EventState) schedule(c *circuit.Circuit, from circuit.NetID) {
	for _, g := range c.Fanout(from) {
		if st.schedAt[g] == st.epoch {
			continue
		}
		st.schedAt[g] = st.epoch
		if !c.Nets[g].Op.Combinational() {
			st.cells = append(st.cells, int32(c.DFFIndex(g)))
			continue
		}
		lvl := c.Level(g)
		st.levels[lvl] = append(st.levels[lvl], g)
	}
	for p := c.OutputPos(from); p >= 0; p = c.NextOutputPos(p) {
		st.pos = append(st.pos, int32(p))
	}
}

// capture writes the words this epoch's events reached into r, a block's
// response seeded with the fault-free values gv captures, and adds the
// block's failing cells and detecting patterns to res. It reports whether
// an error reached a primary output within mask.
func (st *EventState) capture(c *circuit.Circuit, gv []uint64, mask uint64, r *Response, res *Result) bool {
	var anyErr uint64
	for _, ci := range st.cells {
		d := c.Nets[c.DFFs[ci]].Fanin[0]
		nv := st.dirtyVal[d]
		r.Next[ci] = nv
		if diff := (nv ^ gv[d]) & mask; diff != 0 {
			res.FailingCells.Add(int(ci))
			anyErr |= diff
		}
	}
	res.DetectingPatterns += bits.OnesCount64(anyErr)
	poErr := false
	for _, pi := range st.pos {
		p := c.Outputs[pi]
		nv := st.dirtyVal[p]
		r.PO[pi] = nv
		poErr = poErr || (nv^gv[p])&mask != 0
	}
	return poErr
}

// propagate drains the levelized worklist. Processing levels in increasing
// order guarantees every gate sees final input values, so each gate is
// evaluated at most once; a recomputed value equal to the fault-free one
// kills that branch of the frontier.
func (s *Simulator) propagate(st *EventState, gv []uint64) {
	c := s.c
	for lvl := range st.levels {
		bucket := st.levels[lvl]
		for _, id := range bucket {
			n := &c.Nets[id]
			var v uint64
			switch len(n.Fanin) {
			case 1:
				v = logic.Eval1(n.Op, st.value(gv, n.Fanin[0]))
			case 2:
				v = logic.Eval2(n.Op, st.value(gv, n.Fanin[0]), st.value(gv, n.Fanin[1]))
			default:
				in := s.scratch[:len(n.Fanin)]
				for k, src := range n.Fanin {
					in[k] = st.value(gv, src)
				}
				v = logic.Eval(n.Op, in)
			}
			if v == gv[id] {
				continue
			}
			st.mark(id, v)
			st.schedule(c, id)
		}
		st.levels[lvl] = bucket[:0]
	}
}

// seedStuckAt injects the origin event of a single stuck-at fault for one
// block and reports whether any event was raised. Branch faults on a
// flip-flop D pin raise no combinational event (they force the captured
// value only) and are handled by the caller.
func (fs *FaultSim) seedStuckAt(st *EventState, gv []uint64, f Fault, stuckVal uint64) bool {
	c := fs.sim.c
	if f.Stem() {
		// The site value is forced to stuckVal whether the net is a PI, a
		// flip-flop output, or a gate output (the full pass overrides the
		// evaluated value in exactly the same way).
		if gv[f.Net] == stuckVal {
			return false
		}
		st.mark(f.Net, stuckVal)
		st.schedule(c, f.Net)
		return true
	}
	// Branch fault on a combinational gate: only this gate reads the forced
	// value, so recompute its output once with the pin overridden. Nothing
	// upstream ever changes, so the gate is never revisited.
	n := &c.Nets[f.Gate]
	in := fs.sim.scratch[:len(n.Fanin)]
	for k, src := range n.Fanin {
		in[k] = gv[src]
	}
	in[f.Pin] = stuckVal
	v := logic.Eval(n.Op, in)
	if v == gv[f.Gate] {
		return false
	}
	st.mark(f.Gate, v)
	st.schedule(c, f.Gate)
	return true
}

// eventRun is the shared core of the event-driven Run and RunInto: it
// derives res (FailingCells, DetectingPatterns, POOnly) and patches the
// fault-free-seeded responses in faulty with the nets an event reached.
// When sc is non-nil the patched positions are recorded so the next RunInto
// can restore them in O(patches).
func (fs *FaultSim) eventRun(f Fault, faulty []*Response, sc *Scratch, res *Result) {
	c := fs.sim.c
	res.FailingCells.Reset()
	res.DetectingPatterns = 0
	res.POOnly = false
	var stuckVal uint64
	if f.Stuck == 1 {
		stuckVal = ^uint64(0)
	}

	if !f.Stem() && c.Nets[f.Gate].Op == logic.OpDFF {
		// Branch fault on a flip-flop D connection: the captured value is
		// forced, nothing propagates combinationally.
		ci := c.DFFIndex(f.Gate)
		d := c.Nets[f.Gate].Fanin[0]
		for bi, b := range fs.blocks {
			goodD := fs.goodVals[bi][d]
			if goodD == stuckVal {
				continue
			}
			faulty[bi].Next[ci] = stuckVal
			if sc != nil {
				sc.touchedCells[bi] = append(sc.touchedCells[bi], int32(ci))
			}
			if diff := (goodD ^ stuckVal) & b.Mask(); diff != 0 {
				res.FailingCells.Add(ci)
				res.DetectingPatterns += bits.OnesCount64(diff)
			}
		}
		return
	}

	st := fs.events()
	poSeen := false
	for bi, b := range fs.blocks {
		gv := fs.goodVals[bi]
		st.begin()
		if !fs.seedStuckAt(st, gv, f, stuckVal) {
			continue // frontier dead: fault unexcited on this block
		}
		fs.sim.propagate(st, gv)
		if st.capture(c, gv, b.Mask(), faulty[bi], res) {
			poSeen = true
		}
		if sc != nil {
			sc.touchedCells[bi] = append(sc.touchedCells[bi], st.cells...)
			sc.touchedPOs[bi] = append(sc.touchedPOs[bi], st.pos...)
		}
	}
	res.POOnly = poSeen && res.FailingCells.Empty()
}

// restore rewinds the scratch responses to fault-free values by undoing
// only the patches of the previous fault — O(previous events), not
// O(cells).
func (fs *FaultSim) restore(sc *Scratch) {
	for bi := range sc.faulty {
		g, r := sc.base[bi], sc.faulty[bi]
		for _, ci := range sc.touchedCells[bi] {
			r.Next[ci] = g.Next[ci]
		}
		for _, pi := range sc.touchedPOs[bi] {
			r.PO[pi] = g.PO[pi]
		}
		sc.touchedCells[bi] = sc.touchedCells[bi][:0]
		sc.touchedPOs[bi] = sc.touchedPOs[bi][:0]
	}
}

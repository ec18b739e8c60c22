package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/logic"
)

// TransitionFault is a gate-delay fault on a net: slow-to-rise fails to
// complete a 0→1 transition within one capture-to-capture cycle,
// slow-to-fall a 1→0 transition. Detected by launch-off-capture (LOC)
// testing: the scanned-in state produces the launch cycle, a second
// functional capture observes whether the transition completed.
type TransitionFault struct {
	Net        circuit.NetID
	SlowToRise bool
}

// Describe renders the fault using net names from c.
func (f TransitionFault) Describe(c *circuit.Circuit) string {
	kind := "slow-to-fall"
	if f.SlowToRise {
		kind = "slow-to-rise"
	}
	return fmt.Sprintf("%s %s", c.Nets[f.Net].Name, kind)
}

// TransitionFaultList enumerates both transition faults of every net that
// feeds logic (nets without fan-out cannot launch an observable
// transition).
func TransitionFaultList(c *circuit.Circuit) []TransitionFault {
	var faults []TransitionFault
	for id := range c.Nets {
		faults = append(faults,
			TransitionFault{Net: circuit.NetID(id), SlowToRise: true},
			TransitionFault{Net: circuit.NetID(id), SlowToRise: false},
		)
	}
	return faults
}

// runTwoCycle computes the two-cycle (launch-off-capture) response: the
// block's state is the scanned-in launch state, cycle 1 runs fault-free
// (the launch), and cycle 2 runs with the transition fault active — the
// faulty net keeps its cycle-1 value on patterns where the transition
// failed: slow-to-rise means v₂' = v₂ ∧ v₁, slow-to-fall v₂' = v₂ ∨ v₁.
// A nil fault yields the fault-free two-cycle response.
func (s *Simulator) runTwoCycle(b *Block, f *TransitionFault, r *Response) {
	c := s.c
	// Cycle 1: fault-free launch from the scanned-in state.
	r1 := newResponse(c)
	s.Good(b, r1)
	// Remember the cycle-1 value of the faulty net.
	var v1 uint64
	if f != nil {
		v1 = s.vals[f.Net] // s.vals still holds cycle-1 net values
	}
	// Cycle 2: state advances to the captured values.
	b2 := &Block{N: b.N, PI: b.PI, State: r1.Next}
	if f == nil {
		s.Good(b2, r)
		return
	}
	// Faulty pass with the value-dependent force at the fault net; the
	// cycle-1 pass has allocated s.vals.
	for i, id := range c.Inputs {
		s.vals[id] = b2.PI[i]
	}
	for i, id := range c.DFFs {
		s.vals[id] = b2.State[i]
	}
	if !c.Nets[f.Net].Op.Combinational() {
		s.vals[f.Net] = transitionForce(s.vals[f.Net], v1, f.SlowToRise)
	}
	for _, id := range c.TopoOrder() {
		n := &c.Nets[id]
		in := s.scratch[:len(n.Fanin)]
		for k, src := range n.Fanin {
			in[k] = s.vals[src]
		}
		v := logic.Eval(n.Op, in)
		if id == f.Net {
			v = transitionForce(v, v1, f.SlowToRise)
		}
		s.vals[id] = v
	}
	for i, id := range c.DFFs {
		r.Next[i] = s.vals[c.Nets[id].Fanin[0]]
	}
	for i, id := range c.Outputs {
		r.PO[i] = s.vals[id]
	}
}

// transitionForce applies the delay-fault semantics per pattern bit.
func transitionForce(v2, v1 uint64, slowToRise bool) uint64 {
	if slowToRise {
		return v2 & v1 // a 1 only survives if it was already 1
	}
	return v2 | v1 // a 0 only appears if it was already 0
}

// twoCycleCache memoizes the fault-free two-cycle machine per FaultSim:
// the cycle-2 captured responses and the cycle-2 internal net values of
// every block (cycle-1 values are the FaultSim's regular goodVals, since
// the launch cycle is exactly the fault-free single-cycle run). The cache
// is shared by forks and computed once, on first transition-fault use.
type twoCycleCache struct {
	once sync.Once
	vals [][]uint64
	good []*Response
}

// twoCycle returns the lazily computed two-cycle cache. Safe to call from
// concurrent forks: the first caller computes on a private Simulator.
func (fs *FaultSim) twoCycle() *twoCycleCache {
	fs.tc.once.Do(func() {
		c := fs.sim.c
		s := New(c)
		for bi, b := range fs.blocks {
			b2 := &Block{N: b.N, PI: b.PI, State: fs.good[bi].Next}
			r := newResponse(c)
			s.Good(b2, r)
			gv := make([]uint64, c.NumNets())
			copy(gv, s.vals)
			fs.tc.good = append(fs.tc.good, r)
			fs.tc.vals = append(fs.tc.vals, gv)
		}
	})
	return fs.tc
}

// RunTransition simulates a transition fault under launch-off-capture with
// the event-driven engine: the faulty net's cycle-2 value is forced by the
// delay-fault semantics against its cycle-1 value, and the resulting event
// propagates over the cached two-cycle fault-free values and is captured
// like a stuck-at fault's. The Result's Faulty responses are the cycle-2
// captured stream, bit-identical to RunTransitionReference.
func (fs *FaultSim) RunTransition(f TransitionFault) *Result {
	c := fs.sim.c
	tc := fs.twoCycle()
	st := fs.events()
	res := &Result{
		Fault:        Fault{Net: f.Net, Gate: -1, Pin: -1},
		FailingCells: bitset.New(c.NumDFFs()),
	}
	poSeen := false
	for bi, b := range fs.blocks {
		bad := newResponse(c)
		copy(bad.Next, tc.good[bi].Next)
		copy(bad.PO, tc.good[bi].PO)
		res.Faulty = append(res.Faulty, bad)
		gv := tc.vals[bi]
		// The launch value of the faulty net is its cycle-1 (single-cycle
		// fault-free) value; the fault holds cycle 2 at it when the
		// transition fails.
		forced := transitionForce(gv[f.Net], fs.goodVals[bi][f.Net], f.SlowToRise)
		if forced == gv[f.Net] {
			continue // no failing transition launched on this block
		}
		st.begin()
		st.mark(f.Net, forced)
		st.schedule(c, f.Net)
		fs.sim.propagate(st, gv)
		if st.capture(c, gv, b.Mask(), bad, res) {
			poSeen = true
		}
	}
	res.POOnly = poSeen && res.FailingCells.Empty()
	return res
}

// RunTransitionReference simulates a transition fault with two full-pass
// two-cycle runs per block — the oracle RunTransition is pinned against.
func (fs *FaultSim) RunTransitionReference(f TransitionFault) *Result {
	c := fs.sim.c
	res := &Result{
		Fault:        Fault{Net: f.Net, Gate: -1, Pin: -1},
		FailingCells: bitset.New(c.NumDFFs()),
	}
	poSeen := false
	for _, b := range fs.blocks {
		good := newResponse(c)
		fs.sim.runTwoCycle(b, nil, good)
		bad := newResponse(c)
		fs.sim.runTwoCycle(b, &f, bad)
		mask := b.Mask()
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
		res.Faulty = append(res.Faulty, bad)
	}
	res.POOnly = poSeen && res.FailingCells.Empty()
	return res
}

// TwoCycleGood returns the fault-free two-cycle responses per block, the
// reference stream for transition-fault diagnosis. The responses are the
// memoized cache shared with RunTransition; callers must not modify them.
func (fs *FaultSim) TwoCycleGood() []*Response {
	return fs.twoCycle().good
}

// Package sim provides compiled, levelized, 64-way bit-parallel logic
// simulation of circuit netlists with single stuck-at fault injection, plus
// stuck-at fault list generation, equivalence collapsing, and deterministic
// fault sampling. It is the engine behind every experiment: for each
// injected fault it produces the exact set of scan cells that capture
// errors, which the paper's diagnosis schemes then try to identify from
// compacted signatures.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Fault is a single stuck-at fault. Output (stem) faults set Gate to -1 and
// affect every reader of Net; input (branch) faults name the reading gate
// and pin and affect only that connection.
type Fault struct {
	Net   circuit.NetID // the faulty net
	Gate  circuit.NetID // reading gate for a branch fault; -1 for a stem fault
	Pin   int           // fan-in index within Gate; -1 for a stem fault
	Stuck uint8         // stuck-at value, 0 or 1
}

// Stem reports whether f is an output (stem) fault.
func (f Fault) Stem() bool { return f.Gate < 0 }

// Describe renders the fault using net names from c.
func (f Fault) Describe(c *circuit.Circuit) string {
	if f.Stem() {
		return fmt.Sprintf("%s s-a-%d", c.Nets[f.Net].Name, f.Stuck)
	}
	return fmt.Sprintf("%s->%s/%d s-a-%d", c.Nets[f.Net].Name, c.Nets[f.Gate].Name, f.Pin, f.Stuck)
}

// FullFaultList enumerates the uncollapsed single stuck-at faults of c:
// two stem faults per net, and two branch faults per gate input whose
// driving net has fan-out greater than one (with fan-out of one the branch
// fault is identical to the stem fault and is omitted at generation time).
func FullFaultList(c *circuit.Circuit) []Fault {
	size := 2 * len(c.Nets)
	for id := range c.Nets {
		for _, src := range c.Nets[id].Fanin {
			if len(c.Fanout(src)) > 1 {
				size += 2
			}
		}
	}
	faults := make([]Fault, 0, size)
	for id := range c.Nets {
		for _, v := range []uint8{0, 1} {
			faults = append(faults, Fault{Net: circuit.NetID(id), Gate: -1, Pin: -1, Stuck: v})
		}
	}
	for id := range c.Nets {
		n := &c.Nets[id]
		for pin, src := range n.Fanin {
			if len(c.Fanout(src)) <= 1 {
				continue
			}
			for _, v := range []uint8{0, 1} {
				faults = append(faults, Fault{Net: src, Gate: circuit.NetID(id), Pin: pin, Stuck: v})
			}
		}
	}
	return faults
}

// CollapseFaults reduces a fault list by structural equivalence: faults
// guaranteed to produce identical behaviour on all inputs are merged, and
// one representative per class is kept. The rules are the classical local
// ones:
//
//   - BUF: input s-a-v ≡ output s-a-v; NOT: input s-a-v ≡ output s-a-(1−v)
//   - AND: any input s-a-0 ≡ output s-a-0; NAND: any input s-a-0 ≡ output s-a-1
//   - OR: any input s-a-1 ≡ output s-a-1; NOR: any input s-a-1 ≡ output s-a-0
//
// A gate-input equivalence applies to the branch fault when the driving net
// fans out only to this gate (then the stem fault is the branch fault).
//
// Note that the classical DFF rule (input s-a-v ≡ output s-a-v) is *not*
// applied: in a scan environment the D-input fault corrupts the value
// captured and shifted out by that cell, while the Q-output fault only
// corrupts downstream logic — observably different behaviours.
func CollapseFaults(c *circuit.Circuit, faults []Fault) []Fault {
	// Dense slot tables stand in for a Fault-keyed index: stem (net, v)
	// lives at stems[2·net+v] and branch (gate, pin, v) at
	// branches[2·(pinBase[gate]+pin)+v]. A slot holds the list position of
	// the fault's last occurrence, or -1. A fault that names no slot —
	// out-of-range net, gate or pin, a stuck value above 1, or a branch
	// whose Net is not the gate's fan-in at Pin — equals no fault the rules
	// below name, so it never merges and survives as its own class.
	nNets := len(c.Nets)
	pinBase := make([]int32, nNets+1)
	for id := range c.Nets {
		pinBase[id+1] = pinBase[id] + int32(len(c.Nets[id].Fanin))
	}
	stems := make([]int32, 2*nNets)
	branches := make([]int32, 2*pinBase[nNets])
	for i := range stems {
		stems[i] = -1
	}
	for i := range branches {
		branches[i] = -1
	}
	slotOf := func(f Fault) *int32 {
		if f.Stuck > 1 || f.Net < 0 || int(f.Net) >= nNets {
			return nil
		}
		if f.Gate == -1 && f.Pin == -1 {
			return &stems[2*int(f.Net)+int(f.Stuck)]
		}
		if f.Gate < 0 || int(f.Gate) >= nNets || f.Pin < 0 {
			return nil
		}
		if fanin := c.Nets[f.Gate].Fanin; f.Pin >= len(fanin) || fanin[f.Pin] != f.Net {
			return nil
		}
		return &branches[2*(int(pinBase[f.Gate])+f.Pin)+int(f.Stuck)]
	}
	for i, f := range faults {
		if slot := slotOf(f); slot != nil {
			*slot = int32(i)
		}
	}
	parent := make([]int32, len(faults))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(ia, ib int32) {
		if ia < 0 || ib < 0 {
			return
		}
		ra, rb := find(ia), find(ib)
		if ra != rb {
			// Prefer the earlier (stem) fault as representative.
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}

	// inputFault returns the slot of the fault on pin `pin` of gate g: the
	// branch fault if the driver fans out, otherwise the driver's stem
	// fault.
	inputFault := func(g circuit.NetID, pin int, v uint8) int32 {
		src := c.Nets[g].Fanin[pin]
		if len(c.Fanout(src)) > 1 {
			return branches[2*(int(pinBase[g])+pin)+int(v)]
		}
		return stems[2*int(src)+int(v)]
	}

	for id := range c.Nets {
		g := circuit.NetID(id)
		n := &c.Nets[id]
		out := func(v uint8) int32 { return stems[2*id+int(v)] }
		switch n.Op {
		case logic.OpBuf:
			union(inputFault(g, 0, 0), out(0))
			union(inputFault(g, 0, 1), out(1))
		case logic.OpNot:
			union(inputFault(g, 0, 0), out(1))
			union(inputFault(g, 0, 1), out(0))
		case logic.OpAnd:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 0), out(0))
			}
		case logic.OpNand:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 0), out(1))
			}
		case logic.OpOr:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 1), out(1))
			}
		case logic.OpNor:
			for pin := range n.Fanin {
				union(inputFault(g, pin, 1), out(0))
			}
		}
	}

	// The class representatives are the roots; count them, then copy them
	// out in list order into a slice of exactly that size.
	roots := 0
	for i, p := range parent {
		if p == int32(i) {
			roots++
		}
	}
	out := make([]Fault, 0, roots)
	for i, f := range faults {
		if parent[i] == int32(i) {
			out = append(out, f)
		}
	}
	return out
}

// CollapsedFaults returns the collapsed stuck-at fault list of c: the
// list CollapseFaults(c, FullFaultList(c)) returns, built straight from
// the netlist without materializing the uncollapsed list. The union-find
// runs over the positions the faults would take in FullFaultList: stem
// (net, v) at 2·net+v, and the branch fault of the k-th fanned-out gate
// input (gates in NetID order, pins in order) at 2·nets+2k+v. Every class
// keeps its earliest position as representative, and the representatives
// come out in position order, so the result equals the two-step one fault
// for fault.
func CollapsedFaults(c *circuit.Circuit) []Fault {
	nStems := 2 * len(c.Nets)
	fannedOut := func(src circuit.NetID) bool { return len(c.Fanout(src)) > 1 }
	size := nStems
	for id := range c.Nets {
		for _, src := range c.Nets[id].Fanin {
			if fannedOut(src) {
				size += 2
			}
		}
	}
	parent := make([]int32, size)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}

	// The rules of CollapseFaults, pin by pin. branch counts the fanned-out
	// gate inputs met so far: gates and pins are walked in list order, so
	// it is the ordinal of the current pin's branch slots.
	branch := int32(0)
	for id := range c.Nets {
		n := &c.Nets[id]
		stem := int32(2 * id)
		for _, src := range n.Fanin {
			// in is the slot of the input fault s-a-0 (s-a-1 is in+1): the
			// branch when the driver fans out, otherwise the driver's stem.
			in := int32(2 * src)
			if fannedOut(src) {
				in = int32(nStems) + 2*branch
				branch++
			}
			switch n.Op {
			case logic.OpBuf:
				union(in, stem)
				union(in+1, stem+1)
			case logic.OpNot:
				union(in, stem+1)
				union(in+1, stem)
			case logic.OpAnd:
				union(in, stem)
			case logic.OpNand:
				union(in, stem+1)
			case logic.OpOr:
				union(in+1, stem+1)
			case logic.OpNor:
				union(in+1, stem)
			}
		}
	}

	roots := 0
	for i, p := range parent {
		if p == int32(i) {
			roots++
		}
	}
	faults := make([]Fault, 0, roots)
	for i := 0; i < nStems; i++ {
		if parent[i] == int32(i) {
			faults = append(faults, Fault{Net: circuit.NetID(i / 2), Gate: -1, Pin: -1, Stuck: uint8(i & 1)})
		}
	}
	slot := nStems
	for id := range c.Nets {
		for pin, src := range c.Nets[id].Fanin {
			if !fannedOut(src) {
				continue
			}
			for v := range 2 {
				if parent[slot] == int32(slot) {
					faults = append(faults, Fault{Net: src, Gate: circuit.NetID(id), Pin: pin, Stuck: uint8(v)})
				}
				slot++
			}
		}
	}
	return faults
}

// SampleFaults deterministically samples up to n faults without
// replacement. With n >= len(faults) a copy of the full list is returned.
// Sampling is order-stable for a fixed seed regardless of platform.
func SampleFaults(faults []Fault, n int, seed int64) []Fault {
	if n >= len(faults) {
		out := make([]Fault, len(faults))
		copy(out, faults)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(faults))[:n]
	sort.Ints(perm)
	out := make([]Fault, n)
	for i, p := range perm {
		out[i] = faults[p]
	}
	return out
}

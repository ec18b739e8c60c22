// Package chaindiag locates defects in the scan chain itself — a stuck-at
// in the shift path — the companion problem to identifying failing
// *capture* cells: before system-logic diagnosis can trust the chain, the
// chain must be known good, and when it is not, the faulty shift element
// must be located.
//
// A hard stuck-at in the shift path makes naive flush tests useless: every
// bit exits through the faulty position, so the whole flush image reads the
// stuck value. The standard remedy is simulation-based: load a pattern
// through the (faulty) chain, fire one functional capture — the capture
// path bypasses the shift path, re-loading cells in parallel — and shift
// out. Cells downstream of the fault deliver their captured values intact;
// everything at or upstream of the fault reads the stuck value. Each
// hypothesis (position, stuck value) predicts a distinct observation, and
// matching the device's observation against all 2n+1 hypotheses (including
// fault-free) yields the candidates.
package chaindiag

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// ChainFault is a stuck-at defect in the shift path at one chain position:
// after every shift clock the cell at Position holds Stuck, regardless of
// the bit shifted into it. Position 0 is the scan-out end.
type ChainFault struct {
	Position int
	Stuck    uint8
}

func (f ChainFault) String() string {
	return fmt.Sprintf("chain position %d s-a-%d", f.Position, f.Stuck)
}

// Device models one scan-test sequence (load, capture, observe) on a chain
// with an optional shift-path fault. It is both the unit under diagnosis
// (wrapping the defective device) and the predictor the diagnoser runs per
// hypothesis.
type Device struct {
	c     *circuit.Circuit
	order []int // chain position -> cell
	fault *ChainFault
	sim   *sim.Simulator
}

// NewDevice builds a device; fault nil means a healthy chain.
func NewDevice(c *circuit.Circuit, order []int, fault *ChainFault) (*Device, error) {
	if len(order) != c.NumDFFs() {
		return nil, fmt.Errorf("chaindiag: order covers %d of %d cells", len(order), c.NumDFFs())
	}
	if fault != nil && (fault.Position < 0 || fault.Position >= len(order)) {
		return nil, fmt.Errorf("chaindiag: fault position %d outside chain of %d", fault.Position, len(order))
	}
	return &Device{c: c, order: order, fault: fault, sim: sim.New(c)}, nil
}

// shift advances the chain one clock toward scan-out and returns the bit
// that left, applying the stuck fault.
func (d *Device) shift(chain []uint8, in uint8) (out uint8) {
	out = chain[0]
	copy(chain[:len(chain)-1], chain[1:])
	chain[len(chain)-1] = in
	if d.fault != nil {
		chain[d.fault.Position] = d.fault.Stuck
	}
	return out
}

// LoadCaptureObserve runs the chain-diagnosis sequence: serially load the
// pattern (corrupted by the fault on its way in), apply the primary
// inputs, pulse one functional capture (parallel load, bypassing the shift
// path), and shift the response out (corrupted again on its way out),
// returning the n observed bits in scan-out order.
func (d *Device) LoadCaptureObserve(pattern []uint8, pi []uint8) ([]uint8, error) {
	n := len(d.order)
	if len(pattern) != n {
		return nil, fmt.Errorf("chaindiag: pattern of %d bits for a %d-cell chain", len(pattern), n)
	}
	if len(pi) != d.c.NumInputs() {
		return nil, fmt.Errorf("chaindiag: %d PI bits for %d inputs", len(pi), d.c.NumInputs())
	}
	chain := make([]uint8, n)
	if d.fault != nil {
		chain[d.fault.Position] = d.fault.Stuck
	}
	// Load: the k-th bit fed settles at position k (entering at the far
	// end, moving toward scan-out), so feed pattern[0] first.
	for k := 0; k < n; k++ {
		d.shift(chain, pattern[k]&1)
	}
	// Capture: parallel load through the functional path.
	block := &sim.Block{N: 1, PI: make([]uint64, d.c.NumInputs()), State: make([]uint64, d.c.NumDFFs())}
	for i, b := range pi {
		block.PI[i] = uint64(b & 1)
	}
	for pos, cell := range d.order {
		block.State[cell] = uint64(chain[pos])
	}
	resp := &sim.Response{Next: make([]uint64, d.c.NumDFFs()), PO: make([]uint64, d.c.NumOutputs())}
	d.sim.Good(block, resp)
	for pos, cell := range d.order {
		chain[pos] = uint8(resp.Next[cell] & 1)
	}
	// The captured value of the faulty element is immediately lost.
	if d.fault != nil {
		chain[d.fault.Position] = d.fault.Stuck
	}
	// Observe: shift out.
	out := make([]uint8, n)
	for k := 0; k < n; k++ {
		out[k] = d.shift(chain, 0)
	}
	return out, nil
}

// Candidate is one hypothesis consistent with the observation; Fault nil
// means "chain is fault-free".
type Candidate struct {
	Fault *ChainFault
}

func (c Candidate) String() string {
	if c.Fault == nil {
		return "fault-free"
	}
	return c.Fault.String()
}

// Diagnose locates a shift-path stuck-at: it applies several load-capture-
// observe sequences (alternating pattern, its complement, and a
// double-period pattern, under different PI settings) to the device under
// test, predicts each observation under every hypothesis, and returns the
// hypotheses consistent with all of them. The true fault is always among
// the candidates; hypotheses the sequences cannot tell apart stay
// unresolved.
func Diagnose(c *circuit.Circuit, order []int, observed func(pattern, pi []uint8) ([]uint8, error)) ([]Candidate, error) {
	n := len(order)
	type sequence struct{ pattern, pi []uint8 }
	var seqs []sequence
	for variant := 0; variant < 3; variant++ {
		pattern := make([]uint8, n)
		for i := range pattern {
			switch variant {
			case 0:
				pattern[i] = uint8(i % 2)
			case 1:
				pattern[i] = uint8((i + 1) % 2)
			default:
				pattern[i] = uint8(i / 2 % 2)
			}
		}
		pi := make([]uint8, c.NumInputs())
		for i := range pi {
			pi[i] = uint8((i + variant) % 2)
		}
		seqs = append(seqs, sequence{pattern, pi})
	}

	observations := make([][]uint8, len(seqs))
	for si, s := range seqs {
		got, err := observed(s.pattern, s.pi)
		if err != nil {
			return nil, err
		}
		if len(got) != n {
			return nil, fmt.Errorf("chaindiag: observation of %d bits for a %d-cell chain", len(got), n)
		}
		observations[si] = got
	}

	var cands []Candidate
	hypotheses := []*ChainFault{nil}
	for pos := 0; pos < n; pos++ {
		hypotheses = append(hypotheses, &ChainFault{Position: pos, Stuck: 0}, &ChainFault{Position: pos, Stuck: 1})
	}
	for _, h := range hypotheses {
		dev, err := NewDevice(c, order, h)
		if err != nil {
			return nil, err
		}
		consistent := true
		for si, s := range seqs {
			pred, err := dev.LoadCaptureObserve(s.pattern, s.pi)
			if err != nil {
				return nil, err
			}
			if !equal(pred, observations[si]) {
				consistent = false
				break
			}
		}
		if consistent {
			cands = append(cands, Candidate{Fault: h})
		}
	}
	return cands, nil
}

func equal(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Outcome is how the diagnosis of one injected chain fault turned out.
type Outcome struct {
	Located bool // the injected fault is among the candidates
	Exact   bool // it is the only candidate
	Cands   int  // number of candidates
}

// Inject plants truth in a simulated device with the given scan order,
// diagnoses the device, and scores the candidates against truth.
func Inject(c *circuit.Circuit, order []int, truth ChainFault) (Outcome, error) {
	dut, err := NewDevice(c, order, &truth)
	if err != nil {
		return Outcome{}, err
	}
	cands, err := Diagnose(c, order, dut.LoadCaptureObserve)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Cands: len(cands)}
	for _, cand := range cands {
		if cand.Fault != nil && *cand.Fault == truth {
			out.Located = true
			out.Exact = len(cands) == 1
			break
		}
	}
	return out, nil
}

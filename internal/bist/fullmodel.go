package bist

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/sim"
)

// FullModel is the clock-by-clock reference for the complete scan-BIST
// datapath on a single chain: the PRPG serially shifts each pattern into
// the scan chain and drives the primary inputs, a capture pulse latches the
// combinational response, and the chain shifts out through the Figure-1
// selection hardware into the MISR. It exists to validate the layered
// abstraction (pattern blocks → bit-parallel simulation → syndrome
// verdicts) against a model with no abstraction at all; the engine's
// signatures must match it bit for bit.
type FullModel struct {
	c        *circuit.Circuit
	sim      *sim.Simulator
	cells    []int // chain position -> cell (position 0 nearest scan-out)
	prpgPoly lfsr.Poly
	prpgSeed uint64
	misrPoly lfsr.Poly

	mode      Mode
	partPoly  lfsr.Poly
	partSeed  uint64   // random-selection IVR origin
	seeds     []uint64 // interval-mode per-partition seeds
	groups    int
	labelBits int
	lenBits   int
}

// NewFullModel builds the reference for a single-chain configuration.
// scheme must be partition.RandomSelection or partition.Interval with
// explicit seeds; the composite schemes are exercised through those two.
func NewFullModel(c *circuit.Circuit, order []int, scheme partition.Scheme, groups int, misrPoly lfsr.Poly, prpgSeed uint64) (*FullModel, error) {
	if len(order) != c.NumDFFs() {
		return nil, fmt.Errorf("bist: order covers %d of %d cells", len(order), c.NumDFFs())
	}
	m := &FullModel{
		c:        c,
		sim:      sim.New(c),
		cells:    order,
		prpgPoly: lfsr.MustPrimitivePoly(16),
		prpgSeed: prpgSeed,
		misrPoly: misrPoly,
		groups:   groups,
	}
	n := len(order)
	switch s := scheme.(type) {
	case partition.RandomSelection:
		m.mode = ModeRandom
		m.partPoly, m.partSeed = s.Poly, s.Seed
		if m.partPoly == 0 {
			m.partPoly = lfsr.MustPrimitivePoly(16)
		}
		if m.partSeed == 0 {
			m.partSeed = 0xACE1
		}
		m.labelBits = 1
		for 1<<uint(m.labelBits) < groups {
			m.labelBits++
		}
		m.lenBits = 1
	case partition.Interval:
		m.mode = ModeInterval
		m.partPoly = s.Poly
		if m.partPoly == 0 {
			m.partPoly = lfsr.MustPrimitivePoly(16)
		}
		m.lenBits = s.LenBits
		if m.lenBits == 0 {
			m.lenBits = partition.AutoLenBits(n, groups)
		}
		if d := m.partPoly.Degree(); m.lenBits < 1 || m.lenBits > d {
			return nil, fmt.Errorf("bist: interval length field %d outside [1, %d], the LFSR degree", m.lenBits, d)
		}
		m.seeds = s.Seeds
		if len(m.seeds) == 0 {
			return nil, fmt.Errorf("bist: full model needs explicit interval seeds")
		}
		m.labelBits = 1
	default:
		return nil, fmt.Errorf("bist: full model supports random-selection and interval schemes, not %s", scheme.Name())
	}
	return m, nil
}

// ivrSeed returns the Initial Value Register contents for partition t: the
// stored seed for interval mode, or the origin seed advanced t chain-lengths
// for random-selection mode (the architecture writes the LFSR back to the
// IVR after each partition).
func (m *FullModel) ivrSeed(t int) (uint64, error) {
	if m.mode == ModeInterval {
		if t >= len(m.seeds) {
			return 0, fmt.Errorf("bist: no interval seed for partition %d", t)
		}
		return m.seeds[t], nil
	}
	l, err := lfsr.New(m.partPoly, m.partSeed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < t*len(m.cells); i++ {
		l.Step()
	}
	return l.State(), nil
}

// SessionSignature runs the complete session for (partition t, group g)
// clock by clock and returns the MISR signature. A nil fault yields the
// golden signature.
func (m *FullModel) SessionSignature(f *sim.Fault, nPatterns, t, g int) (uint64, error) {
	n := len(m.cells)
	sel, err := NewSelectionHardware(m.mode, m.partPoly, m.groups, m.labelBits, m.lenBits)
	if err != nil {
		return 0, err
	}
	seed, err := m.ivrSeed(t)
	if err != nil {
		return 0, err
	}
	if err := sel.LoadSeed(seed); err != nil {
		return 0, err
	}
	prpg, err := lfsr.New(m.prpgPoly, m.prpgSeed)
	if err != nil {
		return 0, err
	}
	misr, err := lfsr.NewMISR(m.misrPoly)
	if err != nil {
		return 0, err
	}

	chain := make([]uint8, n) // chain[pos]; position 0 is nearest scan-out
	for p := 0; p < nPatterns; p++ {
		// Scan-in: n shift clocks. Bits enter at the far end (position
		// n−1, the scan-in pin) and move toward position 0 (the scan-out
		// pin), so the k-th bit drawn settles at position k — the PRPG
		// draw order of GenerateBlocks (cell 0's bit first) loads cell
		// order[pos] at position pos.
		for k := 0; k < n; k++ {
			copy(chain[:n-1], chain[1:])
			chain[n-1] = uint8(prpg.Step())
		}
		// Primary inputs are held from the PRPG's next bits.
		block := &sim.Block{N: 1, PI: make([]uint64, m.c.NumInputs()), State: make([]uint64, m.c.NumDFFs())}
		for i := 0; i < m.c.NumInputs(); i++ {
			block.PI[i] = prpg.Step()
		}
		for pos, cell := range m.cells {
			block.State[cell] = uint64(chain[pos])
		}
		// Capture pulse.
		resp := &sim.Response{Next: make([]uint64, m.c.NumDFFs()), PO: make([]uint64, m.c.NumOutputs())}
		if f == nil {
			m.sim.Good(block, resp)
		} else {
			m.sim.Faulty(block, *f, resp)
		}
		for pos, cell := range m.cells {
			chain[pos] = uint8(resp.Next[cell] & 1)
		}
		// Scan-out through the selection hardware into the MISR: the cell
		// at position 0 leaves first; masked cells feed 0.
		if err := sel.BeginGroup(g); err != nil {
			return 0, err
		}
		for k := 0; k < n; k++ {
			bit := uint64(chain[0])
			copy(chain[:n-1], chain[1:])
			chain[n-1] = 0
			if sel.Shift() {
				misr.Clock(bit)
			} else {
				misr.Clock(0)
			}
		}
	}
	return misr.Signature(), nil
}

package lfsr

import "fmt"

// LFSR is a maximal-length-capable linear feedback shift register. Its
// state is a polynomial s(x) of degree < n; each Step multiplies by x
// modulo the feedback polynomial, which for a primitive polynomial walks
// all 2^n − 1 nonzero states. It serves as PRPG (pseudorandom pattern
// generator), as the scan-cell label generator of random-selection
// partitioning, and as the interval-length generator of interval-based
// partitioning.
type LFSR struct {
	poly   Poly
	degree int
	mask   uint64
	state  uint64
}

// New returns an LFSR with the given feedback polynomial and seed. The seed
// is reduced to the register width; a zero (or zero-reducing) seed is
// rejected because the all-zero state is a fixed point.
func New(poly Poly, seed uint64) (*LFSR, error) {
	d := poly.Degree()
	if d < 2 || d > 63 {
		return nil, fmt.Errorf("lfsr: feedback polynomial degree %d out of range [2,63]", d)
	}
	if poly&1 == 0 {
		return nil, fmt.Errorf("lfsr: feedback polynomial %v lacks constant term", poly)
	}
	l := &LFSR{poly: poly, degree: d, mask: 1<<uint(d) - 1}
	if err := l.Seed(seed); err != nil {
		return nil, err
	}
	return l, nil
}

// MustNew is New but panics on error; for tests and constants.
func MustNew(poly Poly, seed uint64) *LFSR {
	l, err := New(poly, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// Degree returns the register length in bits.
func (l *LFSR) Degree() int { return l.degree }

// Poly returns the feedback polynomial.
func (l *LFSR) Poly() Poly { return l.poly }

// State returns the current register contents.
func (l *LFSR) State() uint64 { return l.state }

// Seed loads the register, reducing to the register width. A zero state is
// rejected.
func (l *LFSR) Seed(seed uint64) error {
	seed &= l.mask
	if seed == 0 {
		return fmt.Errorf("lfsr: zero seed is a fixed point")
	}
	l.state = seed
	return nil
}

// Step advances the register one shift clock and returns the output bit
// (the coefficient that falls off the top of the register). The feedback
// is masked in rather than branched on, since the output bit is random.
func (l *LFSR) Step() uint64 {
	l.state <<= 1
	out := l.state >> uint(l.degree) & 1
	l.state ^= uint64(l.poly) & -out
	return out
}

// StatesInto writes the register's state into each word of states and
// steps it after each, in order: states[i] is the state after i Steps.
// Like StepInto it steps a local copy of the register.
func (l *LFSR) StatesInto(states []uint64) {
	state, poly, top := l.state, uint64(l.poly), uint(l.degree)
	for i := range states {
		states[i] = state
		state <<= 1
		state ^= poly & -(state >> top & 1)
	}
	l.state = state
}

// StepInto advances the register once per word of words and ORs each
// output bit into bit j of its word, in order: words[i] gets the bit of
// the i-th Step. The register is stepped in a local variable and stored
// back once, so a long run costs no memory round trip per bit.
func (l *LFSR) StepInto(words []uint64, j uint) {
	state, poly, top := l.state, uint64(l.poly), uint(l.degree)
	for i := range words {
		state <<= 1
		out := state >> top & 1
		state ^= poly & -out
		words[i] |= out << j
	}
	l.state = state
}

// Bit returns bit i of the current state (stage i's output).
func (l *LFSR) Bit(i int) uint64 { return l.state >> uint(i) & 1 }

// Label assembles an r-bit value from the r lowest stages of the register
// without advancing it. This is the "r-bit binary label" that
// random-selection partitioning compares against Test Counter 1.
func (l *LFSR) Label(r int) uint64 { return l.state & (1<<uint(r) - 1) }

// NextBits advances the register n times and packs the output bits, first
// bit in the least-significant position. n must be ≤ 64.
func (l *LFSR) NextBits(n int) uint64 {
	var w uint64
	for i := 0; i < n; i++ {
		w |= l.Step() << uint(i)
	}
	return w
}

// Period runs the register from its current state until the state recurs,
// returning the cycle length. Intended for verification on small degrees;
// cost is O(period).
func (l *LFSR) Period() uint64 {
	start := l.state
	var n uint64
	for {
		l.Step()
		n++
		if l.state == start {
			return n
		}
	}
}

// MISR is a multiple-input signature register with internal (Galois-style)
// feedback: each clock shifts the register up one stage, applies the
// feedback polynomial when the top bit falls off, and XORs in up to
// `degree` parallel response bits. With the all-zero initial state the
// transformation from input stream to signature is linear over GF(2), the
// property response-compaction and the superposition pruning of
// Bayraktaroglu & Orailoglu rely on.
type MISR struct {
	poly   Poly
	degree int
	mask   uint64
	state  uint64
}

// NewMISR returns a MISR with the given feedback polynomial and a zero
// initial state.
func NewMISR(poly Poly) (*MISR, error) {
	d := poly.Degree()
	if d < 2 || d > 63 {
		return nil, fmt.Errorf("lfsr: MISR polynomial degree %d out of range [2,63]", d)
	}
	if poly&1 == 0 {
		return nil, fmt.Errorf("lfsr: MISR polynomial %v lacks constant term", poly)
	}
	return &MISR{poly: poly, degree: d, mask: 1<<uint(d) - 1}, nil
}

// MustNewMISR is NewMISR but panics on error.
func MustNewMISR(poly Poly) *MISR {
	m, err := NewMISR(poly)
	if err != nil {
		panic(err)
	}
	return m
}

// Degree returns the register length in bits.
func (m *MISR) Degree() int { return m.degree }

// Reset clears the register to the all-zero state.
func (m *MISR) Reset() { m.state = 0 }

// Clock shifts the register once and XORs in the parallel input word
// (truncated to the register width). A single-chain configuration feeds one
// response bit per clock in bit 0; a W-chain TAM feeds W bits.
func (m *MISR) Clock(in uint64) {
	m.state <<= 1
	if m.state>>uint(m.degree)&1 == 1 {
		m.state ^= uint64(m.poly)
	}
	m.state ^= in & m.mask
}

// Signature returns the current register contents.
func (m *MISR) Signature() uint64 { return m.state }

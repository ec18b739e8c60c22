package lfsr

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(Poly(0b11), 1); err == nil {
		t.Error("degree-1 polynomial accepted")
	}
	if _, err := New(PolyFromTaps(8, 4)|0, 0); err == nil {
		t.Error("zero seed accepted")
	}
	if _, err := New(Poly(0b10010), 1); err == nil {
		t.Error("polynomial without constant term accepted")
	}
	if _, err := New(MustPrimitivePoly(16), 1<<16); err == nil {
		t.Error("seed that reduces to zero accepted")
	}
}

// TestMaximalLength verifies the central LFSR property: with a primitive
// feedback polynomial of degree d, the state sequence has period 2^d − 1.
func TestMaximalLength(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8, 11, 16} {
		l := MustNew(MustPrimitivePoly(d), 1)
		want := uint64(1)<<uint(d) - 1
		if got := l.Period(); got != want {
			t.Errorf("degree %d: period %d, want %d", d, got, want)
		}
	}
}

func TestNonPrimitiveShortPeriod(t *testing.T) {
	// x^4+x^3+x^2+x+1 is irreducible with order 5: period must divide 5.
	l := MustNew(Poly(0b11111), 1)
	if p := l.Period(); p != 5 {
		t.Errorf("period = %d, want 5", p)
	}
}

func TestStepVisitsAllNonzeroStates(t *testing.T) {
	l := MustNew(MustPrimitivePoly(8), 0xA5)
	seen := make(map[uint64]bool)
	for i := 0; i < 255; i++ {
		if seen[l.State()] {
			t.Fatalf("state %#x repeated at step %d", l.State(), i)
		}
		if l.State() == 0 {
			t.Fatal("reached zero state")
		}
		seen[l.State()] = true
		l.Step()
	}
	if len(seen) != 255 {
		t.Errorf("visited %d states, want 255", len(seen))
	}
}

func TestSeedRestoresSequence(t *testing.T) {
	l := MustNew(MustPrimitivePoly(16), 0xACE1)
	first := make([]uint64, 100)
	for i := range first {
		first[i] = l.Step()
	}
	if err := l.Seed(0xACE1); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if got := l.Step(); got != first[i] {
			t.Fatalf("bit %d differs after reseed", i)
		}
	}
}

func TestLabelMatchesStateBits(t *testing.T) {
	l := MustNew(MustPrimitivePoly(16), 0xBEEF)
	for i := 0; i < 50; i++ {
		if l.Label(5) != l.State()&31 {
			t.Fatalf("Label(5) = %d, state low bits = %d", l.Label(5), l.State()&31)
		}
		for b := 0; b < 16; b++ {
			if l.Bit(b) != l.State()>>uint(b)&1 {
				t.Fatalf("Bit(%d) mismatch", b)
			}
		}
		l.Step()
	}
}

func TestNextBitsPacksLSBFirst(t *testing.T) {
	l1 := MustNew(MustPrimitivePoly(16), 0x1234)
	l2 := MustNew(MustPrimitivePoly(16), 0x1234)
	w := l1.NextBits(64)
	for i := 0; i < 64; i++ {
		if w>>uint(i)&1 != l2.Step() {
			t.Fatalf("bit %d of NextBits disagrees with Step", i)
		}
	}
}

func TestOutputBalance(t *testing.T) {
	// A maximal-length sequence of degree d has 2^(d-1) ones per period.
	l := MustNew(MustPrimitivePoly(10), 1)
	ones := 0
	for i := 0; i < 1023; i++ {
		ones += int(l.Step())
	}
	if ones != 512 {
		t.Errorf("ones = %d, want 512", ones)
	}
}

func TestMISRRejectsBadPoly(t *testing.T) {
	if _, err := NewMISR(Poly(0b10)); err == nil {
		t.Error("bad MISR polynomial accepted")
	}
	if _, err := NewMISR(Poly(0b110100)); err == nil {
		t.Error("MISR polynomial without constant term accepted")
	}
}

// TestMISRLinearity checks the superposition property: starting from the
// zero state, sig(a XOR b) == sig(a) XOR sig(b) streamwise. Response
// compaction and signature-based pruning both rely on this.
func TestMISRLinearity(t *testing.T) {
	poly := MustPrimitivePoly(16)
	f := func(a, b [8]uint64) bool {
		ma, mb, mab := MustNewMISR(poly), MustNewMISR(poly), MustNewMISR(poly)
		for i := range a {
			ma.Clock(a[i])
			mb.Clock(b[i])
			mab.Clock(a[i] ^ b[i])
		}
		return mab.Signature() == ma.Signature()^mb.Signature()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMISRDistinguishesSingleBitErrors(t *testing.T) {
	// A single-bit error injected at any of 100 positions must produce a
	// nonzero (hence detectable) signature: the error syndrome is x^k mod
	// p(x), never zero.
	poly := MustPrimitivePoly(16)
	for pos := 0; pos < 100; pos++ {
		m := MustNewMISR(poly)
		for i := 0; i < 100; i++ {
			var in uint64
			if i == pos {
				in = 1
			}
			m.Clock(in)
		}
		if m.Signature() == 0 {
			t.Errorf("single error at position %d aliased to zero", pos)
		}
	}
}

func TestMISRSyndromesDistinctWithinPeriod(t *testing.T) {
	// Distinct single-error positions within one LFSR period yield distinct
	// syndromes (x^i mod p are distinct for i < 2^16-1). Check a prefix.
	poly := MustPrimitivePoly(16)
	seen := make(map[uint64]int)
	for pos := 0; pos < 512; pos++ {
		m := MustNewMISR(poly)
		for i := 0; i < 512; i++ {
			var in uint64
			if i == pos {
				in = 1
			}
			m.Clock(in)
		}
		if prev, dup := seen[m.Signature()]; dup {
			t.Fatalf("positions %d and %d share syndrome %#x", prev, pos, m.Signature())
		}
		seen[m.Signature()] = pos
	}
}

func TestMISRReset(t *testing.T) {
	m := MustNewMISR(MustPrimitivePoly(16))
	m.Clock(0xFFFF)
	if m.Signature() == 0 {
		t.Fatal("clocking all-ones left zero signature")
	}
	m.Reset()
	if m.Signature() != 0 {
		t.Error("Reset did not clear signature")
	}
}

func TestMISRZeroStreamZeroSignature(t *testing.T) {
	m := MustNewMISR(MustPrimitivePoly(16))
	for i := 0; i < 1000; i++ {
		m.Clock(0)
	}
	if m.Signature() != 0 {
		t.Error("zero stream produced nonzero signature")
	}
}

func TestMISRParallelInputWidth(t *testing.T) {
	// Inputs wider than the register are truncated, not smeared.
	m := MustNewMISR(MustPrimitivePoly(8))
	m.Clock(0xFFFF_FF00)
	if m.Signature() != 0 {
		t.Errorf("out-of-range input bits leaked into signature: %#x", m.Signature())
	}
}

// TestStepFeedbackMatchesPolynomialMultiply: Step is multiplication by x
// modulo the feedback polynomial, checked against a carry-less product
// reduced bit by bit, and its output bit is the coefficient reduced away.
func TestStepFeedbackMatchesPolynomialMultiply(t *testing.T) {
	for _, deg := range []int{3, 8, 16, 31} {
		p := MustPrimitivePoly(deg)
		l := MustNew(p, 1)
		for i := 0; i < 500; i++ {
			s := l.State()
			want, wantOut := s<<1, s>>uint(deg-1)&1
			if wantOut == 1 {
				want ^= uint64(p)
			}
			if out := l.Step(); out != wantOut || l.State() != want {
				t.Fatalf("degree %d step %d from %#x: got state %#x out %d, want %#x out %d", deg, i, s, l.State(), out, want, wantOut)
			}
		}
	}
}

// TestStatesIntoMatchesStep: StatesInto writes the state before each of
// its steps and leaves the register where as many Steps would.
func TestStatesIntoMatchesStep(t *testing.T) {
	p := MustPrimitivePoly(16)
	a, b := MustNew(p, 0xACE1), MustNew(p, 0xACE1)
	got := make([]uint64, 300)
	a.StatesInto(got)
	for i, s := range got {
		if s != b.State() {
			t.Fatalf("state %d: got %#x, want %#x", i, s, b.State())
		}
		b.Step()
	}
	if a.State() != b.State() {
		t.Fatalf("register left at %#x, want %#x", a.State(), b.State())
	}
}

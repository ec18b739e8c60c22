package noise

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	ok := []Model{
		{},
		{Intermittent: 1},
		{Intermittent: 0.3, Flip: 0.05, Abort: 0.1},
	}
	for _, m := range ok {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	bad := []Model{
		{Intermittent: -0.1},
		{Intermittent: 1.1},
		{Flip: -1},
		{Flip: 2},
		{Abort: -0.5},
		{Abort: 1.5},
		{Intermittent: math.NaN()},
		{Flip: math.NaN()},
		{Abort: math.NaN()},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an out-of-range probability", m)
		}
	}
}

func TestEnabled(t *testing.T) {
	disabled := []Model{{}, {Intermittent: 1}, {Intermittent: 1, Seed: 99}}
	for _, m := range disabled {
		if m.Enabled() {
			t.Errorf("%+v should be a perfect tester", m)
		}
	}
	enabled := []Model{
		{Intermittent: 0.5},
		{Flip: 0.01},
		{Abort: 0.01},
	}
	for _, m := range enabled {
		if !m.Enabled() {
			t.Errorf("%+v should inject noise", m)
		}
	}
}

// TestCoinsAreDeterministic: identical coordinates draw identical coins;
// the coins are pure functions of (seed, ids).
func TestCoinsAreDeterministic(t *testing.T) {
	m := Model{Intermittent: 0.4, Flip: 0.1, Abort: 0.1, Seed: 42}
	n := Model{Intermittent: 0.4, Flip: 0.1, Abort: 0.1, Seed: 42}
	for i := 0; i < 200; i++ {
		if m.ActiveAt(1, 2, 3, i) != n.ActiveAt(1, 2, 3, i) {
			t.Fatal("ActiveAt not deterministic")
		}
		if m.Flips(i, 0, 0) != n.Flips(i, 0, 0) {
			t.Fatal("Flips not deterministic")
		}
		if m.Aborts(0, i, 1) != n.Aborts(0, i, 1) {
			t.Fatal("Aborts not deterministic")
		}
		if m.Corrupt(0, 0, i) != n.Corrupt(0, 0, i) {
			t.Fatal("Corrupt not deterministic")
		}
	}
}

// TestCoinFrequencies: each coin's empirical rate matches its probability
// over many independent coordinates.
func TestCoinFrequencies(t *testing.T) {
	const draws = 100000
	m := Model{Intermittent: 0.3, Flip: 0.05, Abort: 0.1, Seed: 7}
	active, flips, aborts := 0, 0, 0
	for i := 0; i < draws; i++ {
		if m.ActiveAt(0, 0, 0, i) {
			active++
		}
		if m.Flips(0, 0, i) {
			flips++
		}
		if m.Aborts(0, 0, i) {
			aborts++
		}
	}
	check := func(name string, got int, p float64) {
		rate := float64(got) / draws
		if math.Abs(rate-p) > 0.01 {
			t.Errorf("%s rate %.4f, want %.2f ± 0.01", name, rate, p)
		}
	}
	check("active", active, 0.3)
	check("flip", flips, 0.05)
	check("abort", aborts, 0.1)
}

// TestSeedAndForkChangeTheStream: different seeds (and different Fork ids)
// yield different coin streams.
func TestSeedAndForkChangeTheStream(t *testing.T) {
	a := Model{Intermittent: 0.5, Seed: 1}
	b := Model{Intermittent: 0.5, Seed: 2}
	c := a.Fork(9)
	d := a.Fork(10)
	if c.Seed == a.Seed || c.Seed == d.Seed {
		t.Fatalf("Fork did not derive a fresh substream: %d %d %d", a.Seed, c.Seed, d.Seed)
	}
	diffAB, diffCD := 0, 0
	for i := 0; i < 1000; i++ {
		if a.ActiveAt(0, 0, 0, i) != b.ActiveAt(0, 0, 0, i) {
			diffAB++
		}
		if c.ActiveAt(0, 0, 0, i) != d.ActiveAt(0, 0, 0, i) {
			diffCD++
		}
	}
	if diffAB == 0 || diffCD == 0 {
		t.Errorf("streams coincide: seed diff %d, fork diff %d over 1000 draws", diffAB, diffCD)
	}
}

// TestDeterministicEdges: p=1 always fires without consuming entropy;
// q=0 and abort=0 never fire; corruption is never the golden signature.
func TestDeterministicEdges(t *testing.T) {
	m := Model{} // perfect tester
	for i := 0; i < 100; i++ {
		if !m.ActiveAt(0, 0, 0, i) {
			t.Fatal("p=1 fault must be active on every pattern")
		}
		if m.Flips(0, 0, i) || m.Aborts(0, 0, i) {
			t.Fatal("perfect tester flipped or aborted")
		}
	}
	n := Model{Flip: 1, Seed: 3}
	for i := 0; i < 100; i++ {
		if n.Corrupt(0, 0, i) == 0 {
			t.Fatal("corrupted signature must differ from golden (nonzero error signature)")
		}
	}
}

// checkSessionCoins compares every coin of session (t, slot) with the
// Model method it stands for, at the given attempt and pattern.
func checkSessionCoins(t *testing.T, m Model, ts, slot, attempt, pat int) {
	t.Helper()
	s := m.Streams().Fold(ts).Fold(slot)
	if got, want := s.Aborts(attempt), m.Aborts(ts, slot, attempt); got != want {
		t.Fatalf("%+v (%d, %d, %d): Session.Aborts %v, Model.Aborts %v", m, ts, slot, attempt, got, want)
	}
	if got, want := s.Flips(attempt), m.Flips(ts, slot, attempt); got != want {
		t.Fatalf("%+v (%d, %d, %d): Session.Flips %v, Model.Flips %v", m, ts, slot, attempt, got, want)
	}
	if got, want := s.Corrupt(attempt), m.Corrupt(ts, slot, attempt); got != want {
		t.Fatalf("%+v (%d, %d, %d): Session.Corrupt %#x, Model.Corrupt %#x", m, ts, slot, attempt, got, want)
	}
	// Three patterns with one value bit each: bit i of Active's XOR is the
	// coin of pats[i].
	pats := []int32{int32(pat), int32(pat) + 1, int32(pat) + 7}
	var want uint64
	for i, p := range pats {
		if m.ActiveAt(ts, slot, attempt, int(p)) {
			want |= 1 << i
		}
	}
	if got, hit := s.Active(attempt, pats, []uint64{1, 2, 4}); got != want || hit != (want != 0) {
		t.Fatalf("%+v (%d, %d, %d, %v): Session.Active %#b, %v; Model.ActiveAt %#b", m, ts, slot, attempt, pats, got, hit, want)
	}
	if got, hit := s.Active(attempt, nil, nil); got != 0 || hit {
		t.Fatalf("%+v: Session.Active over no patterns = %#x, %v", m, got, hit)
	}
}

// thresholdProbs are the probabilities at the edges of the integer coin
// threshold: zero, a subnormal, one far below 2^-53, two ordinary rates,
// the largest float below 1, and 1.
var thresholdProbs = []float64{0, math.SmallestNonzeroFloat64, 0x1p-60, 0.02, 0.5, math.Nextafter(1, 0), 1}

// TestThresholdMatchesUnit: h>>11 < threshold(p) agrees with unit(h) < p
// at the three top-53-bit values around the threshold, under random low
// bits, for every edge probability.
func TestThresholdMatchesUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range thresholdProbs {
		T := threshold(p)
		for _, x := range []uint64{T - 1, T, T + 1} {
			if x >= 1<<53 { // T−1 wrapped, or beyond the top 53 bits
				continue
			}
			for range 8 {
				h := x<<11 | rng.Uint64()&(1<<11-1)
				if got, want := h>>11 < T, unit(h) < p; got != want {
					t.Fatalf("p=%g threshold %d: h>>11=%d gives %v, unit(h)=%g < p gives %v", p, T, x, got, unit(h), want)
				}
			}
		}
	}
	if threshold(math.NaN()) != 0 || threshold(-1) != 0 || threshold(2) != 1<<53 {
		t.Error("threshold outside [0, 1]: NaN and negatives must never fire, above 1 always")
	}
}

// TestSessionCoinsMatchModel: the prefix-folded Session coins equal the
// Model coins at probabilities 0, 1, Intermittent 0 and in between, over
// random coordinates and seeds.
func TestSessionCoinsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	probs := []float64{0, 1, 0.02, 0.3, 0.5, 0.97}
	for i := 0; i < 4000; i++ {
		m := Model{
			Intermittent: probs[rng.Intn(len(probs))],
			Flip:         probs[rng.Intn(len(probs))],
			Abort:        probs[rng.Intn(len(probs))],
			Seed:         rng.Uint64(),
		}
		if i%7 == 0 {
			m = m.Fork(rng.Uint64(), rng.Uint64())
		}
		checkSessionCoins(t, m, rng.Intn(64), rng.Intn(1<<12), rng.Intn(16), rng.Intn(1<<16))
	}
	// Coordinates at the edges of the int range hash as their uint64
	// conversion, like the Model methods.
	m := Model{Intermittent: 0.5, Flip: 0.5, Abort: 0.5, Seed: 3}
	for _, x := range []int{0, 1, -1, math.MaxInt, math.MinInt} {
		checkSessionCoins(t, m, x, x, x, x)
	}
}

// FuzzSessionCoins checks every Session coin against the Model method at
// fuzzed probabilities, seed and coordinates.
func FuzzSessionCoins(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, uint64(0), 0, 0, 0, 0)
	f.Add(1.0, 1.0, 1.0, uint64(1), 1, 2, 3, 4)
	f.Add(0.5, 0.02, 0.02, uint64(0x5eed), 7, 31, 4, 127)
	f.Add(0.3, 0.0, 0.1, uint64(42), -1, 1<<20, 8, -5)
	for i, p := range thresholdProbs {
		f.Add(p, p, p, uint64(i), i, 2*i, i%5, 64*i)
	}
	f.Fuzz(func(t *testing.T, q, flip, abort float64, seed uint64, ts, slot, attempt, pat int) {
		checkSessionCoins(t, Model{Intermittent: q, Flip: flip, Abort: abort, Seed: seed}, ts, slot, attempt, pat)
	})
}

// TestSessionCorruptAtAnyDepth: the corrupt stream keeps coordinates
// pending, so check it against the hash of every coordinate at fold
// depths below, at and past the two it keeps pending.
func TestSessionCorruptAtAnyDepth(t *testing.T) {
	m := Model{Flip: 0.5, Seed: 11}
	ids := []uint64{3, 0, 17, 5, 2}
	for depth := 0; depth <= len(ids); depth++ {
		s := m.Streams()
		for _, id := range ids[:depth] {
			s = s.Fold(int(id))
		}
		for attempt := 0; attempt < 4; attempt++ {
			want := hash(append(append([]uint64{m.Seed, tagCorrupt}, ids[:depth]...), uint64(attempt))...)
			if want == 0 {
				want = 1
			}
			if got := s.Corrupt(attempt); got != want {
				t.Fatalf("depth %d attempt %d: Corrupt %#x, want %#x", depth, attempt, got, want)
			}
		}
	}
}

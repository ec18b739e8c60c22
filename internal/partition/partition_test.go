package partition

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lfsr"
)

func validateCover(t *testing.T, parts []Partition, n, b int) {
	t.Helper()
	for pi, p := range parts {
		if err := p.Validate(); err != nil {
			t.Fatalf("partition %d: %v", pi, err)
		}
		if p.Len() != n || p.NumGroups != b {
			t.Fatalf("partition %d shape %d/%d, want %d/%d", pi, p.Len(), p.NumGroups, n, b)
		}
	}
}

func TestRandomSelectionBasics(t *testing.T) {
	s := RandomSelection{}
	parts, err := s.Partitions(100, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("got %d partitions", len(parts))
	}
	validateCover(t, parts, 100, 4)
	// Successive partitions must differ (IVR update re-labels).
	same := true
	for j := range parts[0].GroupOf {
		if parts[0].GroupOf[j] != parts[1].GroupOf[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("partitions 0 and 1 are identical")
	}
	// Group sizes should be roughly balanced: no group may hold more than
	// half the chain for b=4.
	for g, cells := range parts[0].Groups() {
		if len(cells) > 50 {
			t.Errorf("group %d holds %d of 100 cells", g, len(cells))
		}
	}
}

func TestRandomSelectionDeterministic(t *testing.T) {
	a, _ := RandomSelection{}.Partitions(64, 8, 3)
	b, _ := RandomSelection{}.Partitions(64, 8, 3)
	for t2 := range a {
		for j := range a[t2].GroupOf {
			if a[t2].GroupOf[j] != b[t2].GroupOf[j] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestRandomSelectionNonPowerOfTwoGroups(t *testing.T) {
	parts, err := RandomSelection{}.Partitions(90, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	validateCover(t, parts, 90, 3)
	seen := map[int]bool{}
	for _, g := range parts[0].GroupOf {
		seen[g] = true
	}
	if len(seen) != 3 {
		t.Errorf("only %d of 3 groups used", len(seen))
	}
}

func TestRandomSelectionScattered(t *testing.T) {
	parts, _ := RandomSelection{}.Partitions(64, 4, 1)
	if parts[0].IsIntervalPartition() {
		t.Error("random selection produced a pure interval partition (astronomically unlikely)")
	}
}

func TestIntervalPartitionsAreIntervals(t *testing.T) {
	parts, err := Interval{}.Partitions(52, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	validateCover(t, parts, 52, 4)
	for pi, p := range parts {
		if !p.IsIntervalPartition() {
			t.Errorf("partition %d is not interval-shaped", pi)
		}
		// Groups must appear in order 0,1,2,3 along the chain.
		last := -1
		for _, g := range p.GroupOf {
			if g < last {
				t.Errorf("partition %d: group order decreases", pi)
				break
			}
			last = g
		}
		// All groups non-empty.
		for g, cells := range p.Groups() {
			if len(cells) == 0 {
				t.Errorf("partition %d group %d empty", pi, g)
			}
		}
	}
	// Distinct seeds must give distinct cuts.
	same := true
	for j := range parts[0].GroupOf {
		if parts[0].GroupOf[j] != parts[1].GroupOf[j] {
			same = false
		}
	}
	if same {
		t.Error("two interval partitions identical")
	}
}

func TestIntervalExplicitSeeds(t *testing.T) {
	poly := lfsr.MustPrimitivePoly(16)
	seeds, err := FindSeeds(poly, AutoLenBits(52, 4), 52, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Interval{Poly: poly, Seeds: seeds}
	parts, err := s.Partitions(52, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	validateCover(t, parts, 52, 4)
	// Too few explicit seeds is an error.
	s2 := Interval{Poly: poly, Seeds: seeds[:1]}
	if _, err := s2.Partitions(52, 4, 3); err == nil {
		t.Error("insufficient seeds accepted")
	}
}

func TestFindSeedsProperties(t *testing.T) {
	poly := lfsr.MustPrimitivePoly(16)
	k := AutoLenBits(100, 8)
	seeds, err := FindSeeds(poly, k, 100, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		l, _ := lfsr.New(poly, seed)
		lengths := Lengths(l, k, 8)
		if err := coverError(lengths, 100); err != nil {
			t.Errorf("seed %#x: %v", seed, err)
		}
	}
}

func TestFindSeedsExhaustion(t *testing.T) {
	// Degree-4 LFSR has only 15 seeds; demanding 100 must fail.
	poly := lfsr.MustPrimitivePoly(4)
	if _, err := FindSeeds(poly, 2, 9, 4, 100); err == nil {
		t.Error("impossible seed demand satisfied")
	}
	// Length field wider than the register is rejected.
	if _, err := FindSeeds(poly, 9, 10, 2, 1); err == nil {
		t.Error("oversized length field accepted")
	}
}

// TestIntervalLenBitsBound: the length field is read from the register,
// so a width outside [1, degree] is refused before any seed is searched or
// clocked, for searched and explicit seeds alike. A width of 2^24 would
// otherwise clock the register 2^24 times per interval.
func TestIntervalLenBitsBound(t *testing.T) {
	for _, poly := range []lfsr.Poly{0, lfsr.MustPrimitivePoly(8)} {
		d := 16
		if poly != 0 {
			d = poly.Degree()
		}
		for _, lenBits := range []int{-1, -64, d + 1, 1 << 24, 1<<32 - 1} {
			for _, seeds := range [][]uint64{nil, {0xACE1, 0x1234}} {
				s := Interval{Poly: poly, LenBits: lenBits, Seeds: seeds}
				_, err := s.Partitions(100, 8, 2)
				if err == nil || !strings.Contains(err.Error(), "length field") {
					t.Errorf("degree %d, LenBits %d, seeds %#x: err = %v, want the length-field error", d, lenBits, seeds, err)
				}
			}
		}
		// The bounds themselves are widths the register can read.
		for _, lenBits := range []int{1, d} {
			s := Interval{Poly: poly, LenBits: lenBits, Seeds: []uint64{0xA5}}
			if _, err := s.Partitions(1, 1, 1); err != nil {
				t.Errorf("degree %d, LenBits %d: %v", d, lenBits, err)
			}
		}
	}
	if _, err := FindSeeds(lfsr.MustPrimitivePoly(8), 0, 10, 2, 1); err == nil {
		t.Error("FindSeeds accepted a zero-bit length field")
	}
}

func TestAutoLenBits(t *testing.T) {
	cases := []struct{ n, b, want int }{
		{52, 4, 5},    // target 13 -> k=5 (mean 16.5) beats k=4 (mean 8.5)
		{16, 4, 3},    // target 4 -> k=3 (mean 4.5)
		{1000, 32, 6}, // target 31.25 -> k=6 (mean 32.5)
		{8, 8, 1},
		{3, 3, 1},
		{29, 4, 4}, // target 7.25 -> k=4 (mean 8.5)
	}
	for _, c := range cases {
		if got := AutoLenBits(c.n, c.b); got != c.want {
			t.Errorf("AutoLenBits(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestFixedInterval(t *testing.T) {
	parts, err := FixedInterval{}.Partitions(100, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	validateCover(t, parts, 100, 4)
	// Partition 0 must be exact blocks of 25.
	for j, g := range parts[0].GroupOf {
		if g != j/25 {
			t.Fatalf("position %d in group %d, want %d", j, g, j/25)
		}
	}
	// Later partitions rotate the boundaries.
	if parts[0].GroupOf[0] == parts[2].GroupOf[24] && parts[2].GroupOf[0] != parts[2].GroupOf[24] {
		t.Log("rotation visible")
	}
	same := true
	for j := range parts[0].GroupOf {
		if parts[0].GroupOf[j] != parts[2].GroupOf[j] {
			same = false
		}
	}
	if same {
		t.Error("fixed-interval partitions do not rotate")
	}
}

func TestTwoStepComposition(t *testing.T) {
	s := TwoStep{}
	parts, err := s.Partitions(52, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	validateCover(t, parts, 52, 4)
	if !parts[0].IsIntervalPartition() {
		t.Error("first two-step partition is not interval-shaped")
	}
	if parts[1].IsIntervalPartition() {
		t.Error("second two-step partition should be random-selection")
	}
}

func TestTwoStepMultipleIntervalPartitions(t *testing.T) {
	s := TwoStep{IntervalPartitions: 3}
	parts, err := s.Partitions(100, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !parts[i].IsIntervalPartition() {
			t.Errorf("partition %d should be interval-shaped", i)
		}
	}
	if parts[3].IsIntervalPartition() || parts[4].IsIntervalPartition() {
		t.Error("trailing partitions should be random-selection")
	}
	// More interval partitions than total: all interval.
	s2 := TwoStep{IntervalPartitions: 9}
	parts2, err := s2.Partitions(100, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts2) != 2 {
		t.Fatalf("got %d partitions", len(parts2))
	}
}

func TestSchemeNames(t *testing.T) {
	names := map[string]Scheme{
		"random-selection": RandomSelection{},
		"interval":         Interval{},
		"fixed-interval":   FixedInterval{},
		"two-step":         TwoStep{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestArgumentValidation(t *testing.T) {
	for _, s := range []Scheme{RandomSelection{}, Interval{}, FixedInterval{}, TwoStep{}} {
		if _, err := s.Partitions(0, 1, 1); err == nil {
			t.Errorf("%s: n=0 accepted", s.Name())
		}
		if _, err := s.Partitions(10, 0, 1); err == nil {
			t.Errorf("%s: b=0 accepted", s.Name())
		}
		if _, err := s.Partitions(10, 11, 1); err == nil {
			t.Errorf("%s: b>n accepted", s.Name())
		}
		if _, err := s.Partitions(10, 2, -1); err == nil {
			t.Errorf("%s: k=-1 accepted", s.Name())
		}
		parts, err := s.Partitions(10, 2, 0)
		if err != nil || len(parts) != 0 {
			t.Errorf("%s: k=0 should yield no partitions, got %d (%v)", s.Name(), len(parts), err)
		}
	}
}

func TestLabelBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 32: 5}
	for b, want := range cases {
		if got := labelBits(b); got != want {
			t.Errorf("labelBits(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestPartitionGroupsRoundTrip(t *testing.T) {
	p := Partition{GroupOf: []int{0, 1, 0, 2, 1}, NumGroups: 3}
	gs := p.Groups()
	if len(gs) != 3 {
		t.Fatalf("groups = %v", gs)
	}
	total := 0
	for g, cells := range gs {
		for _, pos := range cells {
			if p.GroupOf[pos] != g {
				t.Errorf("position %d in wrong group", pos)
			}
			total++
		}
	}
	if total != p.Len() {
		t.Errorf("groups cover %d of %d positions", total, p.Len())
	}
}

// TestQuickSchemesAlwaysValid property-tests every scheme over random
// (n, b, k) triples: each generated partition must cover every position
// with a valid group index, and interval-family partitions must be
// interval-shaped.
func TestQuickSchemesAlwaysValid(t *testing.T) {
	f := func(nRaw, bRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 8
		b := int(bRaw)%8 + 2
		if b > n/2 {
			b = n / 2
		}
		k := int(kRaw)%4 + 1
		for _, s := range []Scheme{RandomSelection{}, FixedInterval{}, TwoStep{}} {
			parts, err := s.Partitions(n, b, k)
			if err != nil {
				// Interval-backed schemes may legitimately run out of
				// distinct covering partitions for awkward (n, b).
				if s.Name() == "two-step" {
					continue
				}
				t.Logf("%s(%d,%d,%d): %v", s.Name(), n, b, k, err)
				return false
			}
			if len(parts) != k {
				return false
			}
			for _, p := range parts {
				if p.Len() != n || p.Validate() != nil {
					return false
				}
			}
			if s.Name() == "fixed-interval" {
				// Fixed blocks may wrap cyclically, so only the unrotated
				// first partition must be strictly interval-shaped.
				if !parts[0].IsIntervalPartition() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLengthsPositive: interval length readings are always in
// [1, 2^k] for any seed.
func TestQuickLengthsPositive(t *testing.T) {
	poly := lfsr.MustPrimitivePoly(16)
	f := func(seedRaw uint16, kRaw, bRaw uint8) bool {
		seed := uint64(seedRaw)
		if seed == 0 {
			seed = 1
		}
		k := int(kRaw)%6 + 1
		b := int(bRaw)%16 + 1
		l, err := lfsr.New(poly, seed)
		if err != nil {
			return false
		}
		for _, ln := range Lengths(l, k, b) {
			if ln < 1 || ln > 1<<uint(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

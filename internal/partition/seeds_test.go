package partition

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lfsr"
)

// findSeedsScan is the reference seed search FindSeeds must match: it
// clocks a fresh register through Lengths for every seed, checks coverage
// with coverError and deduplicates on the printed boundaries. The ranking
// and the greedy diversity pick are the same as FindSeeds'.
func findSeedsScan(poly lfsr.Poly, k, n, b, count int) ([]uint64, error) {
	if k > poly.Degree() {
		return nil, fmt.Errorf("partition: length field %d wider than LFSR degree %d", k, poly.Degree())
	}
	if count <= 0 {
		return nil, nil
	}
	type cand struct {
		seed   uint64
		bounds []int
		maxLen int
	}
	var cands []cand
	seen := make(map[string]bool)
	limit := uint64(1)<<uint(poly.Degree()) - 1
	for seed := uint64(1); seed <= limit; seed++ {
		l, err := lfsr.New(poly, seed)
		if err != nil {
			return nil, err
		}
		lengths := Lengths(l, k, b)
		if coverError(lengths, n) != nil {
			continue
		}
		bounds := boundaries(lengths, n)
		key := fmt.Sprint(bounds)
		if seen[key] {
			continue
		}
		seen[key] = true
		maxLen := 0
		prev := 0
		for _, cut := range bounds {
			if cut-prev > maxLen {
				maxLen = cut - prev
			}
			prev = cut
		}
		cands = append(cands, cand{seed: seed, bounds: bounds, maxLen: maxLen})
	}
	if len(cands) < count {
		return nil, fmt.Errorf("partition: only %d of %d distinct covering partitions exist for n=%d b=%d k=%d",
			len(cands), count, n, b, k)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].maxLen != cands[j].maxLen {
			return cands[i].maxLen < cands[j].maxLen
		}
		return cands[i].seed < cands[j].seed
	})
	pool := cands
	if maxPool := count * 64; len(pool) > maxPool {
		pool = pool[:maxPool]
	}
	chosen := []cand{pool[0]}
	used := map[uint64]bool{pool[0].seed: true}
	for len(chosen) < count {
		bestIdx, bestDist := -1, -1
		for i, c := range pool {
			if used[c.seed] {
				continue
			}
			dist := 1 << 62
			for _, ch := range chosen {
				if d := cutDistance(c.bounds, ch.bounds); d < dist {
					dist = d
				}
			}
			if dist > bestDist {
				bestIdx, bestDist = i, dist
			}
		}
		chosen = append(chosen, pool[bestIdx])
		used[pool[bestIdx].seed] = true
	}
	seeds := make([]uint64, count)
	for i, c := range chosen {
		seeds[i] = c.seed
	}
	return seeds, nil
}

// boundaries converts a covering length sequence into cut positions
// truncated at the chain end.
func boundaries(lengths []int, n int) []int {
	bounds := make([]int, len(lengths))
	pos := 0
	for i, ln := range lengths {
		pos += ln
		if pos > n {
			pos = n
		}
		bounds[i] = pos
	}
	return bounds
}

// checkSeedsMatchScan requires FindSeeds and the reference scan to return
// the same seeds, or the same error (which names the candidate count).
func checkSeedsMatchScan(t *testing.T, poly lfsr.Poly, k, n, b, count int) {
	t.Helper()
	got, gotErr := FindSeeds(poly, k, n, b, count)
	want, wantErr := findSeedsScan(poly, k, n, b, count)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("FindSeeds(%v, k=%d, n=%d, b=%d, count=%d) error = %v, scan error = %v",
			poly, k, n, b, count, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("FindSeeds(%v, k=%d, n=%d, b=%d, count=%d) = %#x, scan = %#x",
			poly, k, n, b, count, got, want)
	}
}

// cycleLengths returns the lengths of the cycles the register's nonzero
// states fall into.
func cycleLengths(poly lfsr.Poly) []int {
	d := poly.Degree()
	seen := make(map[uint64]bool)
	var lens []int
	for s := uint64(1); s < 1<<uint(d); s++ {
		if seen[s] {
			continue
		}
		l := lfsr.MustNew(poly, s)
		n := 0
		for {
			seen[l.State()] = true
			l.Step()
			n++
			if l.State() == s {
				break
			}
		}
		lens = append(lens, n)
	}
	return lens
}

func TestFindSeedsMatchesScan(t *testing.T) {
	type tc struct {
		poly            lfsr.Poly
		k, n, b, counts int
	}
	var cases []tc
	// Every primitive degree from 4 to 16, at the geometry AutoLenBits
	// picks and at counts 1, 2 and 8.
	for d := 4; d <= 16; d++ {
		poly := lfsr.MustPrimitivePoly(d)
		n, b := 3*d+5, 4
		if d >= 12 {
			n, b = 40, 8 // the benchmark's per-chain geometry at scale
		}
		for _, count := range []int{1, 2, 8} {
			cases = append(cases, tc{poly, min(AutoLenBits(n, b), d), n, b, count})
		}
	}
	// The degree-16 geometries the CLIs and the end-to-end benchmark run:
	// s13207's 638-cell chain in 16 groups, SOC1 on one 4624-cell meta
	// chain and at TAM width 8 (578-cell meta chains), in 32 groups.
	for _, g := range [][2]int{{638, 16}, {4624, 32}, {578, 32}} {
		for _, count := range []int{1, 8} {
			cases = append(cases, tc{lfsr.MustPrimitivePoly(16), AutoLenBits(g[0], g[1]), g[0], g[1], count})
		}
	}
	// x^8 + 1 rotates the register: 35 cycles of lengths 1, 2, 4 and 8,
	// some shorter than the k-clock stride between readings.
	rot8 := lfsr.Poly(1<<8 | 1)
	// x^4+x^3+x^2+x+1 is irreducible of order 5: three cycles of length 5.
	ord5 := lfsr.Poly(0b11111)
	// (x^3+x+1)(x^4+x+1) = x^7+x^5+x^3+x^2+1: cycles of lengths 7, 15
	// and 105.
	prod := lfsr.Poly(0xAD)
	for _, poly := range []lfsr.Poly{rot8, ord5, prod} {
		d := poly.Degree()
		for _, k := range []int{1, 2, 3, d} {
			for _, g := range [][2]int{{9, 3}, {6, 6}, {20, 2}, {12, 4}} {
				for _, count := range []int{1, 2, 8} {
					cases = append(cases, tc{poly, k, g[0], g[1], count})
				}
			}
		}
	}
	// b = n: every interval must read exactly one cell.
	cases = append(cases,
		tc{lfsr.MustPrimitivePoly(8), 1, 5, 5, 1},
		tc{lfsr.MustPrimitivePoly(8), 2, 3, 3, 2},
		tc{lfsr.MustPrimitivePoly(16), 1, 16, 16, 1},
		tc{lfsr.MustPrimitivePoly(12), 1, 1, 1, 1},
	)
	// Exhaustion: more partitions demanded than exist, and none at all.
	cases = append(cases,
		tc{lfsr.MustPrimitivePoly(4), 2, 9, 4, 100},
		tc{lfsr.MustPrimitivePoly(10), 2, 500, 4, 1},
		tc{lfsr.MustPrimitivePoly(6), 3, 7, 7, 1},
		tc{lfsr.MustPrimitivePoly(4), 9, 10, 2, 1},
		tc{lfsr.MustPrimitivePoly(8), 3, 30, 5, 0},
		tc{lfsr.Poly(0b11), 1, 4, 2, 1},
		tc{lfsr.Poly(1 << 8), 2, 12, 3, 1},
	)
	for _, c := range cases {
		checkSeedsMatchScan(t, c.poly, c.k, c.n, c.b, c.counts)
	}
}

// TestFindSeedsPinned pins the seeds FindSeeds picks at the production
// geometries, so a rewrite of the search that drifts together with the
// reference scan still fails.
func TestFindSeedsPinned(t *testing.T) {
	poly := lfsr.MustPrimitivePoly(16)
	for _, c := range []struct {
		n, b, count int
		want        []uint64
	}{
		{638, 16, 1, []uint64{0xb68}},
		{638, 16, 8, []uint64{0xb68, 0x806a, 0x5857, 0x503c, 0x527d, 0x7f43, 0x1f44, 0x453c}},
		{4624, 32, 1, []uint64{0xa5b9}},
		{4624, 32, 8, []uint64{0xa5b9, 0xa1e9, 0x5920, 0x3143, 0xc80e, 0x108c, 0xe9b0, 0x22f6}},
		{578, 32, 1, []uint64{0x3459}},
		{578, 32, 8, []uint64{0x3459, 0x7b9b, 0x3248, 0xbc9e, 0x35a9, 0x5194, 0x1331, 0x3bf7}},
	} {
		k := AutoLenBits(c.n, c.b)
		got, err := FindSeeds(poly, k, c.n, c.b, c.count)
		if err != nil {
			t.Fatalf("n=%d b=%d k=%d count=%d: %v", c.n, c.b, k, c.count, err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("n=%d b=%d k=%d count=%d: seeds %#x, want %#x", c.n, c.b, k, c.count, got, c.want)
		}
	}
}

// TestFindSeedsCycleStructure pins the cycle structure of the
// non-primitive registers TestFindSeedsMatchesScan uses.
func TestFindSeedsCycleStructure(t *testing.T) {
	for _, c := range []struct {
		poly lfsr.Poly
		want map[int]int // cycle length -> number of cycles
	}{
		{lfsr.Poly(1<<8 | 1), map[int]int{1: 1, 2: 1, 4: 3, 8: 30}},
		{lfsr.Poly(0b11111), map[int]int{5: 3}},
		{lfsr.Poly(0xAD), map[int]int{7: 1, 15: 1, 105: 1}},
		{lfsr.MustPrimitivePoly(6), map[int]int{63: 1}},
	} {
		got := make(map[int]int)
		for _, n := range cycleLengths(c.poly) {
			got[n]++
		}
		if !maps.Equal(got, c.want) {
			t.Errorf("%v: cycles %v, want %v", c.poly, got, c.want)
		}
	}
}

func TestFindSeedsDegreeBound(t *testing.T) {
	for _, d := range []int{MaxSearchDegree + 1, 32, 40} {
		poly := lfsr.PolyFromTaps(d, 1)
		_, err := FindSeeds(poly, 4, 100, 8, 2)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("maximum degree %d", MaxSearchDegree)) {
			t.Errorf("degree %d: err = %v, want the maximum-degree error", d, err)
		}
		// Explicit seeds need no search and stay valid at any degree.
		if _, err := (Interval{Poly: poly, LenBits: 4, Seeds: []uint64{1}}).Partitions(100, 8, 1); err != nil &&
			strings.Contains(err.Error(), "maximum degree") {
			t.Errorf("degree %d: explicit seed rejected by the search bound: %v", d, err)
		}
	}
}

// FuzzFindSeeds compares FindSeeds with the reference scan over arbitrary
// feedback polynomials with a constant term, primitive or not, so the
// inputs include registers whose states split into many cycles.
func FuzzFindSeeds(f *testing.F) {
	f.Add(uint64(0), uint8(8), uint8(3), uint16(40), uint16(8), uint8(8))
	f.Add(uint64(0), uint8(4), uint8(2), uint16(9), uint16(4), uint8(2))
	f.Add(uint64(0xfe), uint8(8), uint8(3), uint16(9), uint16(3), uint8(1))
	f.Add(uint64(0b11110), uint8(4), uint8(4), uint16(12), uint16(4), uint8(2))
	f.Add(uint64(0), uint8(10), uint8(1), uint16(6), uint16(6), uint8(1))
	f.Fuzz(func(t *testing.T, taps uint64, deg, k uint8, n, b uint16, count uint8) {
		d := 2 + int(deg)%11 // degrees 2..12 keep the reference scan fast
		poly := lfsr.Poly(taps&(1<<uint(d)-1) | 1<<uint(d) | 1)
		if taps == 0 {
			poly = lfsr.MustPrimitivePoly(d)
		}
		kk := 1 + int(k)%d
		nn := 1 + int(n)%300
		bb := 1 + int(b)%nn
		cnt := int(count) % 10
		checkSeedsMatchScan(t, poly, kk, nn, bb, cnt)
	})
}

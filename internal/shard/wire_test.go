package shard

import (
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/lfsr"
	"repro/internal/partition"
)

// TestSchemeFromWireBoundsSeedSearch: an interval polynomial arrives over
// the wire unchecked, so a high-degree one must be refused by the seed
// search rather than make the worker walk 2^40 register states.
func TestSchemeFromWireBoundsSeedSearch(t *testing.T) {
	for _, kind := range []uint8{codec.SchemeInterval, codec.SchemeTwoStep} {
		for _, d := range []int{partition.MaxSearchDegree + 1, 40, 63} {
			sch, err := schemeFromWire(codec.WireScheme{
				Kind:            kind,
				IntervalPoly:    uint64(lfsr.PolyFromTaps(d, 3)),
				IntervalLenBits: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = sch.Partitions(100, 8, 2)
			if err == nil || !strings.Contains(err.Error(), "maximum degree") {
				t.Errorf("%s over a degree-%d polynomial: err = %v, want the maximum-degree error", sch.Name(), d, err)
			}
		}
		// The default degree still searches.
		sch, err := schemeFromWire(codec.WireScheme{Kind: kind, IntervalPoly: uint64(lfsr.MustPrimitivePoly(16))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sch.Partitions(100, 8, 2); err != nil {
			t.Errorf("%s over a degree-16 polynomial: %v", sch.Name(), err)
		}
	}
}

// TestSchemeFromWireBoundsLenBits: a negative LenBits travels as its
// uint32 image, 2^32−1 for −1. The worker must refuse that width before it
// clocks anything, whether it would search for seeds or use explicit ones;
// with explicit seeds Lengths would otherwise clock the register 2^32−1
// times per interval.
func TestSchemeFromWireBoundsLenBits(t *testing.T) {
	for _, seeds := range [][]uint64{nil, {0xACE1, 0x1234}} {
		iv := partition.Interval{LenBits: -1, Seeds: seeds}
		for _, local := range []partition.Scheme{iv, partition.TwoStep{IntervalPartitions: 2, Interval: iv}} {
			w, err := schemeToWire(local)
			if err != nil {
				t.Fatal(err)
			}
			if w.IntervalLenBits != 1<<32-1 {
				t.Fatalf("%s: IntervalLenBits on the wire = %d, want 2^32-1", local.Name(), w.IntervalLenBits)
			}
			remote, err := schemeFromWire(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, sch := range []partition.Scheme{local, remote} {
				if _, err := sch.Partitions(100, 8, 2); err == nil || !strings.Contains(err.Error(), "length field") {
					t.Errorf("%s, seeds %#x: err = %v, want the length-field error", sch.Name(), seeds, err)
				}
			}
		}
	}
}

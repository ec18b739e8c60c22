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

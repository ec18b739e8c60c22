package bist

import (
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestFullModelMatchesEngine is the deepest end-to-end check in the
// repository: a clock-by-clock simulation of the complete datapath (PRPG
// serial shift-in, capture, selection-gated shift-out, MISR) must produce
// exactly the signatures the layered abstraction computes, for golden and
// faulty machines, for both partitioning modes.
func TestFullModelMatchesEngine(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	n := c.NumDFFs()
	cfg := scan.SingleChain(n)
	const nPatterns, groups, partitions = 10, 4, 2
	misrPoly := lfsr.MustPrimitivePoly(32)

	intervalSeeds, err := partition.FindSeeds(lfsr.MustPrimitivePoly(16), partition.AutoLenBits(n, groups), n, groups, partitions)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []partition.Scheme{
		partition.RandomSelection{},
		partition.Interval{Seeds: intervalSeeds},
	}
	for _, scheme := range schemes {
		t.Run(scheme.Name(), func(t *testing.T) {
			eng, err := NewEngine(cfg, Plan{
				Scheme: scheme, Groups: groups, Partitions: partitions, MISRPoly: misrPoly,
			}, nPatterns)
			if err != nil {
				t.Fatal(err)
			}
			prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
			blocks := GenerateBlocks(prpg, c.NumInputs(), n, nPatterns)
			fs := sim.NewFaultSim(c, blocks)
			good := []*sim.Response{fs.Good(0)}

			model, err := NewFullModel(c, scan.NaturalOrder(n), scheme, groups, misrPoly, 0xACE1)
			if err != nil {
				t.Fatal(err)
			}

			var fault *sim.Fault
			for _, f := range sim.SampleFaults(sim.FullFaultList(c), 30, 111) {
				if fs.Run(f).Detected() {
					fault = &f
					break
				}
			}
			if fault == nil {
				t.Fatal("no detected fault")
			}
			faulty := fs.Faulty(*fault)

			for pt := 0; pt < partitions; pt++ {
				for g := 0; g < groups; g++ {
					wantGood := eng.SessionSignature(good, blocks, pt, g)
					gotGood, err := model.SessionSignature(nil, nPatterns, pt, g)
					if err != nil {
						t.Fatal(err)
					}
					if gotGood != wantGood {
						t.Fatalf("golden (%d,%d): full model %#x, engine %#x", pt, g, gotGood, wantGood)
					}
					wantBad := eng.SessionSignature(faulty, blocks, pt, g)
					gotBad, err := model.SessionSignature(fault, nPatterns, pt, g)
					if err != nil {
						t.Fatal(err)
					}
					if gotBad != wantBad {
						t.Fatalf("faulty (%d,%d): full model %#x, engine %#x", pt, g, gotBad, wantBad)
					}
				}
			}
		})
	}
}

func TestFullModelValidation(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	order := scan.NaturalOrder(c.NumDFFs())
	misr := lfsr.MustPrimitivePoly(32)
	if _, err := NewFullModel(c, order[:3], partition.RandomSelection{}, 4, misr, 1); err == nil {
		t.Error("short order accepted")
	}
	if _, err := NewFullModel(c, order, partition.TwoStep{}, 4, misr, 1); err == nil {
		t.Error("composite scheme accepted")
	}
	if _, err := NewFullModel(c, order, partition.Interval{}, 4, misr, 1); err == nil {
		t.Error("interval without seeds accepted")
	}
	// The length field is read from the register, so it spans 1 to the
	// polynomial's degree (16 by default).
	for _, lenBits := range []int{-1, 17, 1 << 24} {
		s := partition.Interval{LenBits: lenBits, Seeds: []uint64{0x1234}}
		if _, err := NewFullModel(c, order, s, 4, misr, 1); err == nil || !strings.Contains(err.Error(), "length field") {
			t.Errorf("LenBits %d: err = %v, want the length-field error", lenBits, err)
		}
	}
	m, err := NewFullModel(c, order, partition.Interval{Seeds: []uint64{0x1234}}, 4, misr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SessionSignature(nil, 2, 1, 0); err == nil {
		t.Error("missing partition seed accepted")
	}
}

package core

import (
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestEventRunMemoizesNoCones checks that the per-fault sweep step walks
// no fan-out cone: event runs of every stuck-at and every transition
// fault of a fresh s953, and a sweep over a fresh s13207 sample, leave
// both circuits without a memoized cone.
func TestEventRunMemoizesNoCones(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	fs := sim.NewFaultSim(c, bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 100))
	sc := fs.NewScratch()
	detected := 0
	for _, f := range sim.FullFaultList(c) {
		if fs.RunInto(f, sc).Detected() {
			detected++
		}
	}
	for _, f := range sim.TransitionFaultList(c) {
		if fs.RunTransition(f).Detected() {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no fault detected")
	}
	if n := c.NumMemoizedCones(); n != 0 {
		t.Fatalf("event runs on s953 memoized %d cones", n)
	}

	big := benchgen.MustGenerate("s13207")
	b, err := NewCircuitBench(big, Options{
		Scheme: partition.TwoStep{}, Groups: 16, Partitions: 8, Patterns: 128, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	study := b.Run(sim.SampleFaults(b.Faults(), 500, 1))
	if study.Diagnosed == 0 {
		t.Fatal("the s13207 sweep diagnosed no fault")
	}
	if n := big.NumMemoizedCones(); n != 0 {
		t.Fatalf("a sweep on s13207 memoized %d cones", n)
	}
}

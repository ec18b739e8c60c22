// Failureanalysis runs the complete loop the paper's introduction
// motivates: scan-BIST signatures → partition-based failing-cell
// identification → fault-dictionary lookup → a ranked list of defect sites
// for physical failure analysis.
//
//	go run ./examples/failureanalysis
package main

import (
	"fmt"
	"log"

	scanbist "repro"
	"repro/internal/bist"
	"repro/internal/lfsr"
	"repro/internal/sim"
)

func main() {
	c := scanbist.MustGenerate("s5378")
	fmt.Printf("circuit: %s\n\n", c.Stats())

	// The BIST environment under the two-step scheme.
	bench, err := scanbist.NewCircuitBench(c, scanbist.Options{
		Scheme:     scanbist.TwoStep(),
		Groups:     8,
		Partitions: 8,
		Patterns:   128,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A fault dictionary over the collapsed fault list (built once per
	// design; reused for every failing device).
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	allFaults := scanbist.CollapsedFaults(c)
	dict := scanbist.BuildDictionary(fs, allFaults)
	fmt.Printf("dictionary: %s\n\n", dict.Stats())

	// A "returned part": the first sampled defect that actually fails
	// multiple scan cells; we pretend not to know which fault it is.
	var (
		trueFault scanbist.Fault
		fd        *scanbist.FaultDiagnosis
	)
	for _, f := range scanbist.SampleFaults(allFaults, 400, 13) {
		if cand := bench.DiagnoseFault(f); cand.Detected && cand.Actual.Len() >= 3 && cand.Actual.Len() <= 12 {
			trueFault, fd = f, cand
			break
		}
	}
	if fd == nil {
		log.Fatal("no suitable specimen fault in the sample")
	}

	fmt.Printf("failing device (ground truth hidden from the flow): %s\n", trueFault.Describe(c))
	fmt.Printf("  step 1 — BIST sessions:  %d groups x %d partitions\n", 8, 8)
	fmt.Printf("  step 2 — failing cells:  candidates %v\n", fd.Result.Pruned.Elems())
	fmt.Printf("            (truth: %v)\n\n", fd.Actual.Elems())

	// Structural localisation needs no dictionary: the defect must lie in
	// every failing cell's fan-in cone.
	region := c.SuspectRegion(fd.Result.Pruned.Elems())
	fmt.Printf("  step 3 — structural suspect region: %d of %d nets (fan-in cone intersection)\n",
		len(region), c.NumNets())

	matches := dict.Lookup(fd.Result.Pruned, 5)
	fmt.Println("  step 4 — ranked defect candidates for physical inspection:")
	for i, m := range matches {
		marker := " "
		if m.Fault == trueFault {
			marker = "*"
		}
		fmt.Printf("   %s %d. %-24s score %.2f (missed %d, extra %d)\n",
			marker, i+1, m.Fault.Describe(c), m.Score, m.Missed, m.Extra)
	}
	if r := dict.Rank(fd.Result.Pruned, trueFault); r > 0 {
		fmt.Printf("\n  the true defect ranks #%d of %d dictionary faults\n", r, dict.Len())
	}
}

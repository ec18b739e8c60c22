// Mixedmode demonstrates the BIST pattern-delivery spectrum the diagnosis
// architecture sits on: pseudorandom patterns from the PRPG cover most
// faults; PODEM generates deterministic cubes for the random-resistant
// remainder; and LFSR reseeding (Könemann) embeds each cube into a PRPG
// seed, so the tester stores a handful of seeds instead of full patterns.
//
//	go run ./examples/mixedmode
package main

import (
	"fmt"
	"log"

	scanbist "repro"
	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/lfsr"
	"repro/internal/reseed"
	"repro/internal/sim"
)

func main() {
	c := scanbist.MustGenerate("s953")
	fmt.Printf("circuit: %s\n\n", c.Stats())

	const patterns = 128
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), patterns)
	fs := sim.NewFaultSim(c, blocks)
	faults := scanbist.SampleFaults(scanbist.CollapsedFaults(c), 400, 5)

	// Phase 1: pseudorandom coverage.
	cov := sim.MeasureCoverage(fs, faults)
	fmt.Printf("phase 1 — pseudorandom BIST: %s\n", cov)

	// Phase 2: PODEM cubes for what random patterns missed.
	gen := atpg.New(c)
	var cubes []atpg.Test
	var resistant []sim.Fault
	untestable := 0
	for i, f := range faults {
		if cov.FirstDetection[i] >= 0 {
			continue
		}
		test, outcome := gen.Generate(f)
		switch outcome {
		case atpg.Detected:
			cubes = append(cubes, test)
			resistant = append(resistant, f)
		case atpg.Untestable:
			untestable++
		}
	}
	fmt.Printf("phase 2 — PODEM top-off:     %d random-resistant faults get cubes, %d proven untestable\n",
		len(cubes), untestable)
	compacted := atpg.Compact(cubes)
	fmt.Printf("          static compaction:  %d cubes -> %d patterns\n", len(cubes), len(compacted))

	// Phase 3: reseed the PRPG instead of storing full patterns. Note the
	// tension with compaction: merging cubes multiplies their care bits,
	// and a cube only fits a seed while its care bits stay (roughly) below
	// the seed width — so a deployment either stores few wide compacted
	// patterns or many narrow seeds, whichever is smaller for the design.
	seedPoly := lfsr.MustPrimitivePoly(32)
	solver, err := reseed.NewSolver(seedPoly, c.NumDFFs()+c.NumInputs())
	if err != nil {
		log.Fatal(err)
	}
	countSolvable := func(cubes []atpg.Test) int {
		n := 0
		for _, cube := range cubes {
			pos, vals := cube.Care()
			if _, ok := solver.SeedFor(pos, vals); ok {
				n++
			}
		}
		return n
	}
	patternBits := c.NumDFFs() + c.NumInputs()
	rawSolved := countSolvable(cubes)
	compSolved := countSolvable(compacted)
	fmt.Printf("phase 3 — LFSR reseeding (%d-bit seeds):\n", seedPoly.Degree())
	fmt.Printf("          uncompacted cubes: %d of %d encodable -> %d seed bits\n",
		rawSolved, len(cubes), rawSolved*seedPoly.Degree())
	fmt.Printf("          compacted cubes:   %d of %d encodable (merging raises care bits)\n",
		compSolved, len(compacted))
	fmt.Printf("          stored patterns:   %d x %d = %d bits without reseeding\n",
		len(compacted), patternBits, len(compacted)*patternBits)
	fmt.Println("\nfor chains this short, compacted full patterns are competitive; on a")
	fmt.Println("thousand-cell design each pattern costs ~1000 bits and the 32-bit")
	fmt.Println("seeds win by 30x — which is why production BIST reseeds.")
}

// Command atpg runs deterministic (PODEM) test generation over a circuit's
// stuck-at faults and contrasts the achievable coverage ceiling with the
// coverage the pseudorandom BIST pattern set reaches — the analysis that
// tells you whether undetected faults are a pattern-count problem or
// genuine redundancy.
//
// Usage:
//
//	atpg -circuit s953
//	atpg -circuit s5378 -faults 300 -patterns 256
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/lfsr"
	"repro/internal/sim"
)

func main() {
	var (
		name      = flag.String("circuit", "s953", "built-in benchmark profile")
		benchPath = flag.String("bench", "", "path to a .bench netlist (overrides -circuit)")
		faults    = flag.Int("faults", 500, "stuck-at faults to sample")
		seed      = flag.Int64("seed", 1, "fault sampling seed")
		patterns  = flag.Int("patterns", 128, "pseudorandom patterns for the coverage comparison")
		limit     = flag.Int("limit", 2000, "PODEM backtrack limit per fault")
		verbose   = flag.Bool("verbose", false, "print each fault's outcome")
	)
	flag.Parse()

	if *faults < 1 {
		usageError(fmt.Errorf("-faults must be at least 1, got %d", *faults))
	}
	if *patterns < 1 {
		usageError(fmt.Errorf("-patterns must be at least 1, got %d", *patterns))
	}
	if *limit < 1 {
		usageError(fmt.Errorf("-limit must be at least 1, got %d", *limit))
	}

	var (
		c   *circuit.Circuit
		err error
	)
	if *benchPath != "" {
		c, err = bench.ParseFile(*benchPath)
	} else {
		p, ok := benchgen.ProfileByName(*name)
		if !ok {
			usageError(fmt.Errorf("unknown circuit %q", *name))
		}
		c, err = benchgen.Generate(p)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit: %s\n", c.Stats())

	sample := sim.SampleFaults(sim.CollapsedFaults(c), *faults, *seed)

	// PODEM ceiling.
	g := atpg.New(c)
	g.BacktrackLimit = *limit
	detected, untestable, aborted, careBits := 0, 0, 0, 0
	for _, f := range sample {
		test, outcome := g.Generate(f)
		if *verbose {
			fmt.Printf("  %-28s %s\n", f.Describe(c), outcome)
		}
		switch outcome {
		case atpg.Detected:
			detected++
			careBits += test.AssignedBits()
		case atpg.Untestable:
			untestable++
		case atpg.Aborted:
			aborted++
		}
	}
	fmt.Printf("\nPODEM over %d sampled faults (backtrack limit %d):\n", len(sample), *limit)
	fmt.Printf("  testable:   %d (%.1f%%)\n", detected, pct(detected, len(sample)))
	fmt.Printf("  untestable: %d (%.1f%%)  — redundant logic\n", untestable, pct(untestable, len(sample)))
	fmt.Printf("  aborted:    %d (%.1f%%)\n", aborted, pct(aborted, len(sample)))
	if detected > 0 {
		total := c.NumInputs() + c.NumDFFs()
		fmt.Printf("  average care bits per test: %.1f of %d\n", float64(careBits)/float64(detected), total)
	}

	// Pseudorandom coverage.
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), *patterns)
	fs := sim.NewFaultSim(c, blocks)
	cov := sim.MeasureCoverage(fs, sample)
	fmt.Printf("\npseudorandom BIST patterns: %s\n", cov)
	for _, p := range []int{16, 32, 64, *patterns} {
		if p <= *patterns {
			fmt.Printf("  after %4d patterns: %.1f%%\n", p, 100*cov.CurveAt(p))
		}
	}
	if detected > 0 {
		fmt.Printf("\nrandom-pattern coverage reaches %.1f%% of the PODEM-proven ceiling\n",
			100*float64(cov.Detected)/float64(detected+aborted))
	}
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atpg:", err)
	os.Exit(1)
}

// usageError reports a bad flag combination: the error, then the flag
// reference, then exit status 2 (the conventional usage-error code).
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "atpg:", err)
	flag.Usage()
	os.Exit(2)
}

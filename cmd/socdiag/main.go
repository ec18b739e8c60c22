// Command socdiag runs failing-scan-cell diagnosis on a core-based SOC
// tested through a TestRail: it injects stuck-at faults into one core,
// runs the multi-session scan-BIST flow over the meta scan chains, and
// reports where the candidate cells land.
//
// Usage:
//
//	socdiag -soc 1 -core s13207 -scheme two-step
//	socdiag -soc 2 -chains 8 -groups 8 -core s38417
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/soc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("socdiag", stdout, stderr)
	plan := c.PlanFlags()
	sample := c.SampleFlags()
	workers := c.WorkersFlag()
	lanes := c.LanesFlag()
	drcCheck := c.DRCFlag()
	c.TimeoutFlag()
	c.ProfileFlags()
	c.CacheFlags(true)
	c.ShardFlags()
	var (
		socNum   = c.Flags.Int("soc", 1, "crafted SOC to test: 1 (six largest, single chain) or 2 (d695 variant)")
		preset   = c.Flags.String("preset", "", "SOC preset name (soc1|soc2|soc1m|socmini); overrides -soc")
		coreName = c.Flags.String("core", "", "faulty core name (default: the first core)")
		groups   = c.IntFlag("groups", 0, 0, "groups per partition (default: 32 for SOC1, 8 for other presets)")
		chains   = c.IntFlag("chains", 0, 0, "meta scan chains (default: 8 for SOC2, 1 for other presets)")
	)
	c.Check(func() error {
		if *preset == "" && *socNum != 1 && *socNum != 2 {
			return fmt.Errorf("unknown SOC %d (-soc takes 1 or 2; name other presets with -preset)", *socNum)
		}
		return nil
	})

	return c.Run(args, func(ctx context.Context) error {
		w := c.Stdout
		presetName := *preset
		if presetName == "" {
			presetName = fmt.Sprintf("soc%d", *socNum)
		}
		s, err := soc.Preset(presetName)
		if err != nil {
			return err
		}
		// Per-preset defaults: the paper's SOC1 runs 32 groups on a single
		// chain, SOC2 8 groups on 8 chains; other presets get the SOC2 group
		// count on a single chain.
		if *groups == 0 {
			*groups = 8
			if presetName == "soc1" {
				*groups = 32
			}
		}
		if *chains == 0 {
			*chains = 1
			if presetName == "soc2" {
				*chains = 8
			}
		}

		faultyCore := 0
		if *coreName != "" {
			i, ok := s.CoreByName(*coreName)
			if !ok {
				return fmt.Errorf("SOC %s has no core %q", s.Name, *coreName)
			}
			faultyCore = i
		}
		scheme, err := cli.SchemeByName(plan.Scheme)
		if err != nil {
			return err
		}
		if *drcCheck {
			if err := c.ReportDRC(10, s.Name, drc.CheckSOC(s, *chains)); err != nil {
				return err
			}
		}
		cache, err := c.Cache()
		if err != nil {
			return err
		}
		opts := core.Options{
			Scheme:     scheme,
			Groups:     *groups,
			Partitions: plan.Partitions,
			Patterns:   plan.Patterns,
			Chains:     *chains,
			Workers:    *workers,
			Lanes:      *lanes,
			StrictDRC:  *drcCheck,
			Cache:      cache,
		}
		b, err := core.NewSOCBench(s, opts)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "SOC:      %s, %d cores, %d scan cells, %d meta chain(s)\n",
			s.Name, s.NumCores(), s.NumCells(), *chains)
		for i, cc := range s.Cores {
			lo, hi := s.CellRange(i)
			marker := " "
			if i == faultyCore {
				marker = "*"
			}
			fmt.Fprintf(w, "  %s core %-9s cells [%5d, %5d)\n", marker, cc.Name, lo, hi)
		}
		fmt.Fprintf(w, "plan:     %s, %d groups x %d partitions, %d patterns/session\n",
			scheme.Name(), *groups, plan.Partitions, plan.Patterns)

		faults := sim.SampleFaults(b.CoreFaults(faultyCore), sample.Faults, sample.Seed)
		var study *core.Study
		var runErr error
		if c.Sharded() {
			// Sharded run: per-fault verdicts and study aggregates are merged
			// slot-major from the workers' deltas, bit-identical to the
			// in-process sweep, so stdout below does not depend on -connect.
			co, err := c.Dial(ctx, false)
			if err != nil {
				return err
			}
			cc := s.Cores[faultyCore].Circuit
			study, runErr = co.RunSOCCore(ctx, shard.SOCRef(presetName, s), faultyCore, opts, faults,
				shard.StuckAtCosts(cc, faults), nil)
		} else {
			study, runErr = b.RunCoreContext(ctx, faultyCore, faults)
		}
		if runErr != nil {
			c.Warnf("sweep interrupted (%v): diagnosed %d of %d scheduled faults; reporting the partial study",
				runErr, study.Completeness.Observed, study.Completeness.Scheduled)
		}
		fmt.Fprintf(w, "\nfaults:   %d sampled in %s, %d diagnosed, %d undetected\n",
			len(faults), s.Cores[faultyCore].Name, study.Diagnosed, study.Undetected)
		if !study.Completeness.Complete() {
			fmt.Fprintf(w, "partial:  %d of %d faults observed (%.0f%%) before the deadline\n",
				study.Completeness.Observed, study.Completeness.Scheduled, 100*study.Completeness.Fraction())
		}
		fmt.Fprintf(w, "DR:       %.4f without pruning\n", study.Full.Value())
		fmt.Fprintf(w, "DR:       %.4f with pruning\n", study.Pruned.Value())
		if k := study.PartitionsToReachDR(0.5); k > 0 {
			fmt.Fprintf(w, "DR<=0.5 reached after %d partition(s)\n", k)
		} else {
			fmt.Fprintf(w, "DR<=0.5 not reached within %d partitions\n", plan.Partitions)
		}
		return nil
	})
}

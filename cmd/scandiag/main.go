// Command scandiag runs partition-based failing-scan-cell diagnosis on a
// full-scan circuit: it injects sampled stuck-at faults, runs the
// multi-session scan-BIST flow under the chosen partitioning scheme, and
// reports per-fault candidates and the aggregate diagnostic resolution.
//
// Usage:
//
//	scandiag -circuit s953 -scheme two-step -groups 4 -partitions 8
//	scandiag -bench mydesign.bench -scheme random -faults 100 -verbose
//	scandiag -circuit s1423 -intermittent 0.3 -flip 0.02 -abort 0.02 -retries 8 -vote 2
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/bist"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/noise"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("scandiag", stdout, stderr)
	circ := c.CircuitFlags("s953", true)
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
		groups       = c.IntFlag("groups", 4, 1, "groups per partition")
		chains       = c.IntFlag("chains", 1, 1, "number of balanced scan chains")
		order        = c.Flags.String("order", "natural", "scan order: natural|random|reverse")
		ideal        = c.Flags.Bool("ideal", false, "bypass the MISR (alias-free compaction)")
		verbose      = c.Flags.Bool("verbose", false, "print each fault's candidate set")
		intermittent = c.Flags.Float64("intermittent", 1, "probability the fault is active on a given pattern (1 = deterministic fault)")
		flip         = c.Flags.Float64("flip", 0, "probability the tester flips a session's pass/fail verdict")
		abort        = c.Flags.Float64("abort", 0, "probability a session execution aborts and yields no signature")
		retries      = c.IntFlag("retries", 0, 0, "extra executions per session; completed executions vote on the verdict")
		vote         = c.Flags.Int("vote", 1, "prune a cell only if its group passed in at least this many partitions")
		noiseSeed    = c.Flags.Uint64("noise-seed", 7, "seed for the unreliable-tester noise streams")
	)
	var model noise.Model
	c.Check(func() error {
		model = noise.Model{Intermittent: *intermittent, Flip: *flip, Abort: *abort, Seed: *noiseSeed}
		if *vote < 1 || *vote > plan.Partitions {
			return fmt.Errorf("-vote must be in [1, %d], got %d", plan.Partitions, *vote)
		}
		if *order != "natural" && *order != "random" && *order != "reverse" {
			return fmt.Errorf("unknown scan order %q", *order)
		}
		return model.Validate()
	})

	return c.Run(args, func(ctx context.Context) error {
		w := c.Stdout
		ckt, err := circ.Load()
		if err != nil {
			return err
		}
		if *drcCheck {
			if err := c.ReportDRC(10, ckt.Name, drc.Check(ckt)); err != nil {
				return err
			}
		}
		scheme, err := cli.SchemeByName(plan.Scheme)
		if err != nil {
			return err
		}
		cache, err := c.Cache()
		if err != nil {
			return err
		}
		opts := core.Options{
			Scheme:        scheme,
			Groups:        *groups,
			Partitions:    plan.Partitions,
			Patterns:      plan.Patterns,
			Chains:        *chains,
			Ideal:         *ideal,
			Workers:       *workers,
			Lanes:         *lanes,
			Noise:         model,
			Retry:         bist.RetryPolicy{MaxRetries: *retries},
			VoteThreshold: *vote,
			StrictDRC:     *drcCheck,
			Cache:         cache,
		}
		switch *order {
		case "random":
			opts.ScanOrder = scan.RandomOrder(ckt.NumDFFs(), 1)
		case "reverse":
			opts.ScanOrder = scan.ReverseOrder(ckt.NumDFFs())
		}

		b, err := core.NewCircuitBench(ckt, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "circuit:  %s\n", ckt.Stats())
		fmt.Fprintf(w, "plan:     %s, %d groups x %d partitions, %d patterns/session, %d chains\n",
			scheme.Name(), *groups, plan.Partitions, plan.Patterns, *chains)
		if opts.Noise.Enabled() {
			fmt.Fprintf(w, "tester:   intermittent p=%.2f, flip q=%.3f, abort %.3f, %d retries/session, vote threshold %d\n",
				*intermittent, *flip, *abort, *retries, *vote)
		}

		faults := sim.SampleFaults(b.Faults(), sample.Faults, sample.Seed)
		var observe func(*core.FaultDiagnosis)
		if *verbose {
			observe = func(fd *core.FaultDiagnosis) {
				if !fd.Detected {
					fmt.Fprintf(w, "  %-24s undetected\n", fd.Fault.Describe(ckt))
					return
				}
				fmt.Fprintf(w, "  %-24s failing=%v candidates=%v pruned=%v\n",
					fd.Fault.Describe(ckt), fd.Actual.Elems(),
					fd.Result.Candidates.Elems(), fd.Result.Pruned.Elems())
			}
		}
		var study *core.Study
		var runErr error
		if c.Sharded() {
			// Sharded run: identical per-fault verdicts and study aggregates,
			// merged slot-major from the workers' deltas, so stdout below is
			// byte-identical to the in-process sweep (the batch-plan "sched:"
			// line, which legitimately differs, is verbose-only).
			co, err := c.Dial(ctx, *verbose)
			if err != nil {
				return err
			}
			study, runErr = co.RunCircuit(ctx, circ.Ref(ckt), opts, faults, shard.StuckAtCosts(ckt, faults), observe)
		} else {
			study, runErr = b.RunObservedContext(ctx, faults, observe)
		}
		if runErr != nil {
			c.Warnf("sweep interrupted (%v): diagnosed %d of %d scheduled faults; reporting the partial study",
				runErr, study.Completeness.Observed, study.Completeness.Scheduled)
		}
		cost := b.Cost()
		fmt.Fprintf(w, "cost:     %d sessions, %d shift clocks total, %d golden-signature bits, %d selection-register bits\n",
			cost.Sessions, cost.TotalClocks, cost.SignatureBits, cost.SelectionRegisterBits)
		if *verbose {
			// Verbose-only so default stdout stays byte-identical between cold
			// and warm runs (the CI warm-start check diffs it).
			fmt.Fprintf(w, "sched:    %d fault batches, %.1f%% lane fill\n", study.PlanBatches, 100*study.PlanFill)
		}
		fmt.Fprintf(w, "\nfaults:    %d sampled, %d diagnosed, %d undetected by scan cells\n",
			len(faults), study.Diagnosed, study.Undetected)
		if !study.Completeness.Complete() {
			fmt.Fprintf(w, "partial:   %d of %d faults observed (%.0f%%) before the deadline\n",
				study.Completeness.Observed, study.Completeness.Scheduled, 100*study.Completeness.Fraction())
		}
		fmt.Fprintf(w, "DR:        %.4f without pruning\n", study.Full.Value())
		fmt.Fprintf(w, "DR:        %.4f with pruning\n", study.Pruned.Value())
		if opts.Noise.Enabled() {
			fmt.Fprintf(w, "\nrobust:    %d misses (faults whose pruned set lost a truly failing cell)\n", study.Misses)
			fmt.Fprintf(w, "baseline:  %d misses, DR %.4f (hard intersection over the same noisy verdicts)\n",
				study.BaselineMisses, study.BaselineFull.Value())
			fmt.Fprintf(w, "tester:    %s\n", &study.Reliability)
		}
		fmt.Fprintln(w, "\nDR by number of partitions (without pruning):")
		for k, dr := range study.ByPartition {
			fmt.Fprintf(w, "  %2d: %.4f\n", k+1, dr.Value())
		}
		return nil
	})
}

// Command chaindiag locates a stuck-at defect in a scan chain's shift
// path: it injects the fault into a simulated device and runs the
// load–capture–observe diagnosis, reporting the candidate positions.
//
// Usage:
//
//	chaindiag -circuit s953 -position 12 -stuck 1
//	chaindiag -circuit s5378 -sweep        # inject every position, report accuracy
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/chaindiag"
	"repro/internal/circuit"
	"repro/internal/cli"
	"repro/internal/drc"
	"repro/internal/pipeline"
	"repro/internal/scan"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("chaindiag", stdout, stderr)
	circ := c.CircuitFlags("s953", false)
	workers := c.WorkersFlag()
	drcCheck := c.DRCFlag()
	c.TimeoutFlag()
	c.ProfileFlags()
	c.CacheFlags(false)
	c.ShardFlags()
	var (
		position = c.IntFlag("position", 0, 0, "chain position of the injected shift-path fault")
		stuck    = c.Flags.Int("stuck", 0, "stuck value of the injected fault (0 or 1)")
		healthy  = c.Flags.Bool("healthy", false, "diagnose a fault-free chain instead")
		sweep    = c.Flags.Bool("sweep", false, "inject a fault at every position and summarise accuracy")
	)
	c.Check(func() error {
		if *stuck != 0 && *stuck != 1 {
			return fmt.Errorf("-stuck must be 0 or 1, got %d", *stuck)
		}
		return nil
	})

	return c.Run(args, func(ctx context.Context) error {
		w := c.Stdout
		if c.CacheDir() != "" {
			// Chain diagnosis is pure shift-path simulation with no cacheable
			// build artifacts; honor the shared flag by opening (and creating)
			// the store so scripted pipelines can pass one -cachedir everywhere.
			if _, err := c.Cache(); err != nil {
				return err
			}
		}
		ckt, err := circ.Load()
		if err != nil {
			return err
		}
		if *drcCheck {
			if err := c.ReportDRC(9, ckt.Name, drc.Check(ckt)); err != nil {
				return err
			}
		}
		if !*healthy && !*sweep && *position >= ckt.NumDFFs() {
			return cli.Usagef("-position %d outside the %d-cell chain of %s", *position, ckt.NumDFFs(), circ.Name)
		}
		order := scan.NaturalOrder(ckt.NumDFFs())
		fmt.Fprintf(w, "circuit: %s (chain of %d cells)\n", ckt.Stats(), ckt.NumDFFs())

		if *sweep {
			return runSweep(ctx, c, circ, ckt, order, *workers)
		}
		if c.Sharded() {
			return cli.Usagef("-connect applies only to -sweep (single injections run locally)")
		}
		var fault *chaindiag.ChainFault
		if !*healthy {
			fault = &chaindiag.ChainFault{Position: *position, Stuck: uint8(*stuck)}
			fmt.Fprintf(w, "injected: %v\n", *fault)
		} else {
			fmt.Fprintln(w, "injected: none (healthy chain)")
		}
		dut, err := chaindiag.NewDevice(ckt, order, fault)
		if err != nil {
			return err
		}
		cands, err := chaindiag.Diagnose(ckt, order, dut.LoadCaptureObserve)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "candidates (%d):\n", len(cands))
		for _, cand := range cands {
			fmt.Fprintf(w, "  %v\n", cand)
		}
		return nil
	})
}

// runSweep injects ChainFault{Position: i/2, Stuck: i%2} for every
// injection i, in-process or on the -connect workers, and summarises the
// outcomes. Injections are independent, so on a -timeout deadline,
// Ctrl-C or a failed shard the summary covers the injections that
// finished — a sound subset.
func runSweep(ctx context.Context, c *cli.Cmd, circ *cli.Circuit, ckt *circuit.Circuit, order []int, workers int) error {
	n := 2 * ckt.NumDFFs()
	var outs []*chaindiag.Outcome
	var runErr error
	if c.Sharded() {
		co, err := c.Dial(ctx, false)
		if err != nil {
			return err
		}
		outs, runErr = co.RunChain(ctx, circ.Ref(ckt), order, n)
	} else {
		outs = make([]*chaindiag.Outcome, n)
		runErr = pipeline.Executor{Workers: workers}.RunContext(ctx, n, func() func(int) error {
			return func(i int) error {
				out, err := chaindiag.Inject(ckt, order, chaindiag.ChainFault{Position: i / 2, Stuck: uint8(i % 2)})
				if err != nil {
					return err
				}
				outs[i] = &out
				return nil
			}
		})
		if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
			return runErr
		}
	}
	runs, located, exact, totalCands := 0, 0, 0, 0
	for _, out := range outs {
		if out == nil {
			continue
		}
		runs++
		totalCands += out.Cands
		if out.Located {
			located++
		}
		if out.Exact {
			exact++
		}
	}
	if runs == 0 {
		return fmt.Errorf("sweep interrupted (%v) before any injection finished", runErr)
	}
	if runErr != nil {
		c.Warnf("sweep interrupted (%v): %d of %d injections finished; summarising those", runErr, runs, n)
	}
	w := c.Stdout
	fmt.Fprintf(w, "injected %d shift-path faults:\n", runs)
	fmt.Fprintf(w, "  located:         %d (%.1f%%)\n", located, 100*float64(located)/float64(runs))
	fmt.Fprintf(w, "  exactly (1 cand): %d (%.1f%%)\n", exact, 100*float64(exact)/float64(runs))
	fmt.Fprintf(w, "  avg candidates:  %.2f\n", float64(totalCands)/float64(runs))
	return nil
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                       # everything, paper-scale (500 faults)
//	experiments -exp table1           # one experiment
//	experiments -exp table3 -format csv > table3.csv
//	experiments -faults 100           # faster, smaller fault sample
//
// Experiments: table1, table2, table3, table4, figure3, figure5,
// baselines, noise, all.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// experiment runs one table or figure and returns its rows (nil when it
// has no CSV form) and its text rendering.
type experiment func(ctx context.Context, cfg experiments.Config) (rows any, text string, err error)

// sweep adapts a row-producing driver and its formatter.
func sweep[R any](run func(context.Context, experiments.Config) (R, error), format func(R) string) experiment {
	return func(ctx context.Context, cfg experiments.Config) (any, string, error) {
		rows, err := run(ctx, cfg)
		return rows, format(rows), err
	}
}

func socTable(title string) func([]experiments.SOCRow) string {
	return func(rows []experiments.SOCRow) string { return experiments.FormatSOCTable(title, rows) }
}

// catalog lists the experiments in the order -exp all runs them.
var catalog = []struct {
	name string
	run  experiment
}{
	{"figure3", func(context.Context, experiments.Config) (any, string, error) {
		r, err := experiments.Figure3()
		if err != nil {
			return nil, "", err
		}
		return nil, experiments.FormatFigure3(r), nil
	}},
	{"table1", sweep(experiments.Table1, experiments.FormatTable1)},
	{"table2", sweep(experiments.Table2, experiments.FormatTable2)},
	{"table3", sweep(experiments.Table3, socTable(
		"Table 3: SOC1 diagnostic resolution, single meta scan chain\n"+
			"(8 partitions, 32 groups, 128 patterns/session, one faulty core at a time)"))},
	{"table4", sweep(experiments.Table4, socTable(
		"Table 4: SOC2 (d695 variant) diagnostic resolution, 8 meta scan chains\n"+
			"(8 partitions, 8 groups/chain, 128 patterns/session, one faulty core at a time)"))},
	{"figure5", sweep(experiments.Figure5, experiments.FormatFigure5)},
	{"baselines", sweep(experiments.Baselines, experiments.FormatBaselines)},
	{"tamwidth", sweep(experiments.TAMWidth, experiments.FormatTAMWidth)},
	{"transition", sweep(experiments.Transition, experiments.FormatTransition)},
	{"noise", sweep(experiments.NoiseSweep, experiments.FormatNoiseSweep)},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("experiments", stdout, stderr)
	names := []string{"all"}
	for _, e := range catalog {
		names = append(names, e.name)
	}
	exp := c.Flags.String("exp", "all", "experiment to run: "+strings.Join(names, "|"))
	format := c.Flags.String("format", "text", "output format: text|csv (csv not available for figure3)")
	sample := c.SampleFlags()
	workers := c.WorkersFlag()
	lanes := c.LanesFlag()
	c.TimeoutFlag()
	c.ProfileFlags()
	c.CacheFlags(true)
	c.Check(func() error {
		if *format != "text" && *format != "csv" {
			return fmt.Errorf("unknown format %q (expected text|csv)", *format)
		}
		if slices.Contains(names, *exp) {
			return nil
		}
		return fmt.Errorf("unknown experiment %q (expected one of %s)", *exp, strings.Join(names, "|"))
	})

	// The run is cancellable two ways: a -timeout deadline and Ctrl-C.
	// Either stops the fault sweeps at batch granularity, drains in-flight
	// work, and keeps every experiment that completed (exit status 0).
	return c.Run(args, func(ctx context.Context) error {
		// One artifact cache spans every experiment of the invocation, so
		// drivers revisiting a circuit (or plan) reuse its build artifacts;
		// -cachemb bounds its resident footprint.
		cache, err := c.Cache()
		if err != nil {
			return err
		}
		cfg := experiments.Config{Faults: sample.Faults, FaultSeed: sample.Seed, Workers: *workers, Lanes: *lanes, Cache: cache}
		completed := 0
		for _, e := range catalog {
			if *exp != "all" && *exp != e.name {
				continue
			}
			start := time.Now()
			rows, text, err := e.run(ctx, cfg)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				c.Warnf("%s interrupted (%v) after %v; %d experiment(s) completed before it",
					e.name, err, time.Since(start).Round(time.Millisecond), completed)
				return nil
			}
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			completed++
			if *format == "csv" && rows != nil {
				if err := experiments.WriteCSV(c.Stdout, rows); err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
				continue
			}
			fmt.Fprintln(c.Stdout, text)
			fmt.Fprintf(c.Stdout, "[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
}

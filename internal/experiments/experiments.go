// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (s953 DR vs partition count per scheme), Table 2 (the
// six largest ISCAS-89 circuits, random-selection vs two-step, with and
// without pruning), Tables 3 and 4 (the two crafted SOCs), Figure 3 (the
// worked single-fault example), and Figure 5 (partitions needed to reach
// DR 0.5 on SOC1). Each driver returns typed rows; Format* helpers render
// them as the paper's tables.
//
// All drivers are deterministic: fixed PRPG seeds, fixed fault-sample
// seeds, and the deterministic benchmark generator make every number
// reproducible bit-for-bit.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Config scales the experiments. The zero value selects the paper's
// parameters; tests shrink Faults to stay fast.
type Config struct {
	// Faults is the number of stuck-at faults sampled per circuit or per
	// faulty core. Zero selects the paper's 500.
	Faults int
	// FaultSeed seeds fault sampling. Zero selects 1.
	FaultSeed int64
	// Workers bounds the goroutines each driver's fault sweep uses; zero
	// selects GOMAXPROCS, 1 forces serial execution. Results are identical
	// for every worker count.
	Workers int
	// Lanes caps the fault lanes packed per transition-fault batch (1 to
	// sim.MaxBatchLanes); zero selects the engine default. Results are
	// identical for every cap — only sweep throughput changes. Stuck-at
	// sweeps run the event-driven engine and pack no batches.
	Lanes int
	// Cache shares build artifacts (pattern blocks, fault-free responses,
	// partitions) across the benches an experiment builds — and
	// across experiments when the caller threads one cache through all of
	// them, as cmd/experiments does. Sweeps that vary only the scheme,
	// plan, or noise level reuse the expensive fault-free simulation. Nil
	// selects a fresh per-experiment cache.
	Cache *pipeline.ArtifactCache
}

func (c Config) withDefaults() Config {
	if c.Faults == 0 {
		c.Faults = 500
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 1
	}
	if c.Cache == nil {
		c.Cache = pipeline.NewCache()
	}
	return c
}

// Table1Row is one row of Table 1: diagnostic resolution of s953 for a
// given number of partitions under the three schemes.
type Table1Row struct {
	Partitions int
	Interval   float64
	Random     float64
	TwoStep    float64
}

// Table1 reproduces Table 1: s953, 200 pseudorandom patterns per session,
// 4 groups per partition, 1..8 partitions.
func Table1(ctx context.Context, cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	c := benchgen.MustGenerate("s953")
	schemes := []partition.Scheme{
		partition.Interval{},
		partition.RandomSelection{},
		partition.TwoStep{},
	}
	const maxPartitions = 8
	// The fault list is the circuit's, whatever the scheme: collapse it
	// once.
	faults := sim.SampleFaults(sim.CollapsedFaults(c), cfg.Faults, cfg.FaultSeed)
	var studies []*core.Study
	for _, s := range schemes {
		b, err := core.NewCircuitBench(c, core.Options{
			Scheme: s, Groups: 4, Partitions: maxPartitions, Patterns: 200, Workers: cfg.Workers, Cache: cfg.Cache,
		})
		if err != nil {
			return nil, err
		}
		st, err := b.RunContext(ctx, faults)
		if err != nil {
			return nil, err
		}
		studies = append(studies, st)
	}
	rows := make([]Table1Row, maxPartitions)
	for k := 0; k < maxPartitions; k++ {
		rows[k] = Table1Row{
			Partitions: k + 1,
			Interval:   studies[0].ByPartition[k].Value(),
			Random:     studies[1].ByPartition[k].Value(),
			TwoStep:    studies[2].ByPartition[k].Value(),
		}
	}
	return rows, nil
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Circuit    string
	Groups     int
	Partitions int
	// Without pruning.
	Random  float64
	TwoStep float64
	// With the superposition-style pruning.
	RandomPruned  float64
	TwoStepPruned float64
	Diagnosed     int
}

// table2Setup fixes per-circuit group counts (more groups on longer
// chains, the paper's stated strategy) and the shared partition count.
var table2Setup = []struct {
	name   string
	groups int
}{
	{"s5378", 8},
	{"s9234", 8},
	{"s13207", 16},
	{"s15850", 16},
	{"s38417", 32},
	{"s38584", 32},
}

const table2Partitions = 8

// Table2 reproduces Table 2: the six largest ISCAS-89 circuits with a
// single scan chain each, 128 patterns per session, a degree-16 primitive
// LFSR, the same number of partitions for both methods, and DR with and
// without pruning.
func Table2(ctx context.Context, cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, setup := range table2Setup {
		c := benchgen.MustGenerate(setup.name)
		row := Table2Row{Circuit: setup.name, Groups: setup.groups, Partitions: table2Partitions}
		faults := sim.SampleFaults(sim.CollapsedFaults(c), cfg.Faults, cfg.FaultSeed)
		for i, s := range []partition.Scheme{partition.RandomSelection{}, partition.TwoStep{}} {
			b, err := core.NewCircuitBench(c, core.Options{
				Scheme: s, Groups: setup.groups, Partitions: table2Partitions, Patterns: 128, Workers: cfg.Workers, Cache: cfg.Cache,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", setup.name, s.Name(), err)
			}
			st, err := b.RunContext(ctx, faults)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", setup.name, s.Name(), err)
			}
			if i == 0 {
				row.Random, row.RandomPruned = st.Full.Value(), st.Pruned.Value()
			} else {
				row.TwoStep, row.TwoStepPruned = st.Full.Value(), st.Pruned.Value()
			}
			row.Diagnosed = st.Diagnosed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SOCRow is one row of Tables 3 and 4: diagnostic resolution when the
// named core is the faulty one.
type SOCRow struct {
	Core          string
	Random        float64
	TwoStep       float64
	RandomPruned  float64
	TwoStepPruned float64
	Diagnosed     int
}

// socTable runs the SOC experiment shared by Tables 3 and 4.
func socTable(ctx context.Context, cfg Config, s *soc.SOC, chains, groups, partitions, patterns int) ([]SOCRow, error) {
	cfg = cfg.withDefaults()
	benches := make([]*core.SOCBench, 2)
	for i, sch := range []partition.Scheme{partition.RandomSelection{}, partition.TwoStep{}} {
		b, err := core.NewSOCBench(s, core.Options{
			Scheme: sch, Groups: groups, Partitions: partitions, Patterns: patterns, Chains: chains, Workers: cfg.Workers, Cache: cfg.Cache,
		})
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	var rows []SOCRow
	for ci := 0; ci < s.NumCores(); ci++ {
		row := SOCRow{Core: s.Cores[ci].Name}
		faults := sim.SampleFaults(benches[0].CoreFaults(ci), cfg.Faults, cfg.FaultSeed)
		st, err := benches[0].RunCoreContext(ctx, ci, faults)
		if err != nil {
			return nil, err
		}
		row.Random, row.RandomPruned = st.Full.Value(), st.Pruned.Value()
		if st, err = benches[1].RunCoreContext(ctx, ci, faults); err != nil {
			return nil, err
		}
		row.TwoStep, row.TwoStepPruned = st.Full.Value(), st.Pruned.Value()
		row.Diagnosed = st.Diagnosed
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3 reproduces Table 3: SOC1 (the six largest ISCAS-89 cores on a
// single meta scan chain), 8 partitions of 32 groups, 128 patterns, one
// faulty core at a time.
func Table3(ctx context.Context, cfg Config) ([]SOCRow, error) {
	s, err := soc.SOC1()
	if err != nil {
		return nil, err
	}
	return socTable(ctx, cfg, s, 1, 32, 8, 128)
}

// Table4 reproduces Table 4: SOC2 (the d695 variant) with an 8-bit TAM
// re-organised into 8 balanced meta scan chains, 8 partitions of 8 groups
// per chain, 128 patterns.
func Table4(ctx context.Context, cfg Config) ([]SOCRow, error) {
	s, err := soc.SOC2()
	if err != nil {
		return nil, err
	}
	return socTable(ctx, cfg, s, 8, 8, 8, 128)
}

// Figure5Row gives, per faulty core of SOC1, the number of partitions each
// scheme needs to reach DR ≤ 0.5 without pruning (-1 if not reached within
// the sweep).
type Figure5Row struct {
	Core    string
	Random  int
	TwoStep int
}

// figure5MaxPartitions bounds the Figure 5 sweep.
const figure5MaxPartitions = 32

// Figure5 reproduces Figure 5 on SOC1 with a single meta scan chain.
func Figure5(ctx context.Context, cfg Config) ([]Figure5Row, error) {
	cfg = cfg.withDefaults()
	s, err := soc.SOC1()
	if err != nil {
		return nil, err
	}
	benches := make([]*core.SOCBench, 2)
	for i, sch := range []partition.Scheme{partition.RandomSelection{}, partition.TwoStep{}} {
		b, err := core.NewSOCBench(s, core.Options{
			Scheme: sch, Groups: 32, Partitions: figure5MaxPartitions, Patterns: 128, Workers: cfg.Workers, Cache: cfg.Cache,
		})
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	var rows []Figure5Row
	for ci := 0; ci < s.NumCores(); ci++ {
		faults := sim.SampleFaults(benches[0].CoreFaults(ci), cfg.Faults, cfg.FaultSeed)
		row := Figure5Row{Core: s.Cores[ci].Name}
		st, err := benches[0].RunCoreContext(ctx, ci, faults)
		if err != nil {
			return nil, err
		}
		row.Random = st.PartitionsToReachDR(0.5)
		if st, err = benches[1].RunCoreContext(ctx, ci, faults); err != nil {
			return nil, err
		}
		row.TwoStep = st.PartitionsToReachDR(0.5)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: s953 diagnostic resolution vs number of partitions\n")
	fmt.Fprintf(&b, "(200 patterns/session, 4 groups/partition, 500 stuck-at faults)\n")
	fmt.Fprintf(&b, "%-11s %12s %12s %12s\n", "partitions", "interval", "random-sel", "two-step")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11d %12.3f %12.3f %12.3f\n", r.Partitions, r.Interval, r.Random, r.TwoStep)
	}
	return b.String()
}

// FormatTable2 renders Table 2 rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: six largest ISCAS-89 circuits, single scan chain\n")
	fmt.Fprintf(&b, "(128 patterns/session, degree-16 LFSR, %d partitions)\n", table2Partitions)
	fmt.Fprintf(&b, "%-9s %7s %6s | %10s %10s | %10s %10s\n",
		"circuit", "groups", "parts", "DR rand", "DR two", "prune rand", "prune two")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %7d %6d | %10.3f %10.3f | %10.3f %10.3f\n",
			r.Circuit, r.Groups, r.Partitions, r.Random, r.TwoStep, r.RandomPruned, r.TwoStepPruned)
	}
	return b.String()
}

// FormatSOCTable renders Table 3 or 4 rows.
func FormatSOCTable(title string, rows []SOCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s | %10s %10s | %10s %10s\n",
		"core", "DR rand", "DR two", "prune rand", "prune two")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %10.3f %10.3f | %10.3f %10.3f\n",
			r.Core, r.Random, r.TwoStep, r.RandomPruned, r.TwoStepPruned)
	}
	return b.String()
}

// FormatFigure5 renders Figure 5 rows.
func FormatFigure5(rows []Figure5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: partitions to reach DR 0.5 (no pruning), SOC1 single meta chain\n")
	fmt.Fprintf(&b, "%-9s %16s %16s\n", "core", "random-selection", "two-step")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %16s %16s\n", r.Core, countOrDash(r.Random), countOrDash(r.TwoStep))
	}
	return b.String()
}

func countOrDash(k int) string {
	if k < 0 {
		return fmt.Sprintf(">%d", figure5MaxPartitions)
	}
	return fmt.Sprintf("%d", k)
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/sim"
)

// BaselineRow compares one diagnosis strategy on a common circuit and
// fault sample: resolution, test cost, and hardware cost.
type BaselineRow struct {
	Strategy string
	// DR without/with pruning; adaptive identifies exact cells so both are
	// its (usually zero) residual.
	DR       float64
	DRPruned float64
	// Sessions per device: fixed for the partition schemes, the measured
	// average for the adaptive scheme.
	Sessions float64
	// Adaptive reports whether sessions depend on previous outcomes
	// (requiring interrupted test application, the paper's §2 criticism).
	Adaptive bool
	// ExtraRegisterBits is the selection-hardware cost beyond the base
	// Figure-1 register set.
	ExtraRegisterBits int
}

// baselineCircuit fixes the comparison workload.
const (
	baselineCircuit   = "s5378"
	baselineGroups    = 8
	baselinePartition = 8
	baselinePatterns  = 128
)

// Baselines compares the paper's two-step scheme against every other
// diagnosis strategy implemented here — random-selection [5], pure
// interval, deterministic fixed-interval [8], and adaptive binary search
// [6] — on one circuit and one fault sample.
func Baselines(ctx context.Context, cfg Config) ([]BaselineRow, error) {
	cfg = cfg.withDefaults()
	c := benchgen.MustGenerate(baselineCircuit)
	schemes := []partition.Scheme{
		partition.RandomSelection{},
		partition.Interval{},
		partition.FixedInterval{},
		partition.TwoStep{},
	}
	var rows []BaselineRow
	var faults []sim.Fault
	var bench *core.CircuitBench
	for _, s := range schemes {
		b, err := core.NewCircuitBench(c, core.Options{
			Scheme: s, Groups: baselineGroups, Partitions: baselinePartition, Patterns: baselinePatterns, Workers: cfg.Workers, Cache: cfg.Cache,
		})
		if err != nil {
			return nil, err
		}
		if faults == nil {
			faults = sim.SampleFaults(b.Faults(), cfg.Faults, cfg.FaultSeed)
			bench = b
		}
		st, err := b.RunContext(ctx, faults)
		if err != nil {
			return nil, err
		}
		cost := b.Cost()
		extra := 0
		if er, ok := s.(partition.ExtraRegisters); ok {
			extra = er.ExtraRegisterBits(c.NumDFFs(), baselineGroups)
		}
		rows = append(rows, BaselineRow{
			Strategy:          s.Name(),
			DR:                st.Full.Value(),
			DRPruned:          st.Pruned.Value(),
			Sessions:          float64(cost.Sessions),
			ExtraRegisterBits: extra,
		})
	}

	// Adaptive binary search over the same faults, using the real-MISR
	// syndrome oracle.
	eng := bench.Engine()
	fsFork := benchFaultSim(c, baselinePatterns)
	good := make([]*sim.Response, 0)
	for i := 0; i < (baselinePatterns+63)/64; i++ {
		good = append(good, fsFork.Good(i))
	}
	var drAcc, actAcc, sessions, diagnosed int
	for _, f := range faults {
		res := fsFork.Run(f)
		if !res.Detected() {
			continue
		}
		diagnosed++
		o := adaptive.NewSyndromeOracle(eng.CellSyndromes(good, res.Faulty, fsFork.Blocks()))
		found := adaptive.Diagnose(o, c.NumDFFs())
		sessions += o.Sessions()
		drAcc += found.Len()
		actAcc += res.FailingCells.Len()
	}
	adaptiveDR := 0.0
	if actAcc > 0 {
		adaptiveDR = float64(drAcc-actAcc) / float64(actAcc)
	}
	rows = append(rows, BaselineRow{
		Strategy: "adaptive-binary-search",
		DR:       adaptiveDR,
		DRPruned: adaptiveDR,
		Sessions: float64(sessions) / float64(max(diagnosed, 1)),
		Adaptive: true,
	})
	return rows, nil
}

// benchFaultSim rebuilds the fault simulator with the standard PRPG so the
// adaptive comparison sees exactly the bench's patterns.
func benchFaultSim(c *circuit.Circuit, patterns int) *sim.FaultSim {
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), patterns)
	return sim.NewFaultSim(c, blocks)
}

// FormatBaselines renders the comparison table.
func FormatBaselines(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Baselines: diagnosis strategies on %s (%d groups, %d partitions, %d patterns)\n",
		baselineCircuit, baselineGroups, baselinePartition, baselinePatterns)
	fmt.Fprintf(&b, "%-24s %9s %9s %10s %9s %7s\n", "strategy", "DR", "pruned", "sessions", "adaptive", "+bits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %9.3f %9.3f %10.1f %9v %7d\n",
			r.Strategy, r.DR, r.DRPruned, r.Sessions, r.Adaptive, r.ExtraRegisterBits)
	}
	return b.String()
}

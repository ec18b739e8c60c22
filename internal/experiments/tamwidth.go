package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/soc"
)

// TAMWidthRow reports the diagnosis quality/time trade-off of one TAM
// width on SOC2: wider TAMs shift the same patterns in fewer clocks but
// split the cells over more, shorter chains.
type TAMWidthRow struct {
	Chains        int
	Random        float64
	TwoStep       float64
	TwoStepPruned float64
	// TotalClocks is the complete diagnosis time in shift clocks (chains
	// shift in parallel).
	TotalClocks int64
	// SignatureBits is the golden-signature storage (per-chain compactors).
	SignatureBits int
}

// TAMWidth sweeps the meta-chain count of SOC2 (1, 2, 4, 8, 16) with the
// paper's Table-4 session parameters, one faulty core (the first, s838's
// successor position is irrelevant — the same core is used for every
// width so rows are comparable).
func TAMWidth(ctx context.Context, cfg Config) ([]TAMWidthRow, error) {
	cfg = cfg.withDefaults()
	s, err := soc.SOC2()
	if err != nil {
		return nil, err
	}
	const faultyCore = 2 // s5378: mid-sized, detected-fault-rich
	var rows []TAMWidthRow
	var faults []sim.Fault
	for _, chains := range []int{1, 2, 4, 8, 16} {
		row := TAMWidthRow{Chains: chains}
		for i, sch := range []partition.Scheme{partition.RandomSelection{}, partition.TwoStep{}} {
			b, err := core.NewSOCBench(s, core.Options{
				Scheme: sch, Groups: 8, Partitions: 8, Patterns: 128, Chains: chains, Workers: cfg.Workers, Cache: cfg.Cache,
			})
			if err != nil {
				return nil, fmt.Errorf("tam width %d: %w", chains, err)
			}
			if faults == nil {
				faults = sim.SampleFaults(b.CoreFaults(faultyCore), cfg.Faults, cfg.FaultSeed)
			}
			st, err := b.RunCoreContext(ctx, faultyCore, faults)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				row.Random = st.Full.Value()
			} else {
				row.TwoStep = st.Full.Value()
				row.TwoStepPruned = st.Pruned.Value()
				cost := b.Cost()
				row.TotalClocks = cost.TotalClocks
				row.SignatureBits = cost.SignatureBits
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTAMWidth renders the sweep.
func FormatTAMWidth(rows []TAMWidthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TAM width sweep: SOC2, faulty core s5378, 8 groups x 8 partitions, 128 patterns\n")
	fmt.Fprintf(&b, "%-7s %10s %10s %12s %14s %10s\n",
		"chains", "DR rand", "DR two", "two pruned", "shift clocks", "sig bits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %10.3f %10.3f %12.3f %14d %10d\n",
			r.Chains, r.Random, r.TwoStep, r.TwoStepPruned, r.TotalClocks, r.SignatureBits)
	}
	return b.String()
}

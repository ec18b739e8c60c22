package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/sim"
)

// NoiseRow is one row of the noise sweep: one circuit under one tester
// reliability level, comparing the robust vote-threshold diagnosis against
// the paper's hard-intersection pipeline fed the same noisy verdicts.
type NoiseRow struct {
	Circuit      string
	Groups       int
	Intermittent float64
	Flip         float64
	Abort        float64
	Retries      int
	Vote         int
	Diagnosed    int
	// RobustDR and RobustMisses: vote-threshold diagnosis (Unknown never
	// prunes). A miss is a fault whose pruned set lost a truly failing cell.
	RobustDR     float64
	RobustMisses int
	// BaselineDR and BaselineMisses: hard intersection over the same
	// verdicts (pass and Unknown both prune).
	BaselineDR     float64
	BaselineMisses int
	// UnknownFrac is the fraction of sessions whose vote stayed Unknown.
	UnknownFrac float64
	// FlipRate is the tester's estimated verdict-flip rate (upper bound
	// under intermittence).
	FlipRate float64
}

// noiseLevels are the swept tester reliability levels: a perfect tester
// (the seed's deterministic path), a mildly flaky one, and the acceptance
// scenario's heavily intermittent one.
var noiseLevels = []struct {
	name          string
	model         noise.Model
	retries, vote int
}{
	{"perfect", noise.Model{Intermittent: 1}, 0, 1},
	{"mild", noise.Model{Intermittent: 0.7, Flip: 0.01, Abort: 0.01, Seed: 7}, 8, 2},
	{"harsh", noise.Model{Intermittent: 0.3, Flip: 0.02, Abort: 0.02, Seed: 7}, 8, 2},
}

// NoiseSweep measures robustness degradation across tester reliability
// levels on the Table 2 circuits (two-step scheme, 8 partitions, 128
// patterns per session). For each level it reports the robust path's DR
// and soundness misses next to the hard-intersection baseline's.
func NoiseSweep(ctx context.Context, cfg Config) ([]NoiseRow, error) {
	cfg = cfg.withDefaults()
	var rows []NoiseRow
	for _, setup := range table2Setup {
		c := benchgen.MustGenerate(setup.name)
		for _, lvl := range noiseLevels {
			b, err := core.NewCircuitBench(c, core.Options{
				Scheme:        partition.TwoStep{},
				Groups:        setup.groups,
				Partitions:    table2Partitions,
				Patterns:      128,
				Noise:         lvl.model,
				Retry:         bist.RetryPolicy{MaxRetries: lvl.retries},
				VoteThreshold: lvl.vote,
				Workers:       cfg.Workers,
				// Noise and retry knobs are not part of the artifact key,
				// so all three reliability levels share one artifact set.
				Cache: cfg.Cache,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", setup.name, lvl.name, err)
			}
			faults := sim.SampleFaults(b.Faults(), cfg.Faults, cfg.FaultSeed)
			st, err := b.RunContext(ctx, faults)
			if err != nil {
				return nil, err
			}
			row := NoiseRow{
				Circuit:      setup.name,
				Groups:       setup.groups,
				Intermittent: lvl.model.ActivationProb(),
				Flip:         lvl.model.Flip,
				Abort:        lvl.model.Abort,
				Retries:      lvl.retries,
				Vote:         lvl.vote,
				Diagnosed:    st.Diagnosed,
				RobustDR:     st.Pruned.Value(),
				RobustMisses: st.Misses,
			}
			if lvl.model.Enabled() {
				row.BaselineDR = st.BaselineFull.Value()
				row.BaselineMisses = st.BaselineMisses
				if st.Reliability.Sessions > 0 {
					row.UnknownFrac = float64(st.Reliability.Unknown) / float64(st.Reliability.Sessions)
				}
				row.FlipRate = st.Reliability.EstimatedFlipRate()
			} else {
				// A perfect tester's baseline is the robust result itself.
				row.BaselineDR = row.RobustDR
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatNoiseSweep renders the noise sweep as a text table.
func FormatNoiseSweep(rows []NoiseRow) string {
	var b strings.Builder
	b.WriteString("Noise sweep: robust (vote-threshold) vs. hard-intersection diagnosis\n")
	b.WriteString("under an unreliable tester (two-step scheme, 8 partitions, 128 patterns/session;\n")
	b.WriteString("noisy levels retry each session 8 extra times and vote with threshold 2)\n\n")
	b.WriteString("circuit    p     q     abort  diag   robust DR  misses  baseline DR  misses  unknown  est.flip\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %5.2f %5.3f %6.3f %5d %10.3f %7d %12.3f %7d %7.1f%% %9.4f\n",
			r.Circuit, r.Intermittent, r.Flip, r.Abort, r.Diagnosed,
			r.RobustDR, r.RobustMisses, r.BaselineDR, r.BaselineMisses,
			100*r.UnknownFrac, r.FlipRate)
	}
	return b.String()
}

package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/soc"
)

func TestNoiseSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuits in -short mode")
	}
	rows, err := NoiseSweep(context.Background(), Config{Faults: 15, FaultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6*len(noiseLevels) {
		t.Fatalf("got %d rows, want %d", len(rows), 6*len(noiseLevels))
	}
	for i := 0; i < len(rows); i += len(noiseLevels) {
		perfect := rows[i]
		if perfect.Intermittent != 1 || perfect.Flip != 0 || perfect.Abort != 0 {
			t.Fatalf("row %d is not the perfect-tester level: %+v", i, perfect)
		}
		if perfect.RobustMisses != 0 || perfect.BaselineMisses != 0 || perfect.UnknownFrac != 0 {
			t.Errorf("%s perfect tester shows noise artifacts: %+v", perfect.Circuit, perfect)
		}
		if perfect.BaselineDR != perfect.RobustDR {
			t.Errorf("%s perfect tester: baseline and robust DR differ", perfect.Circuit)
		}
		for _, r := range rows[i+1 : i+len(noiseLevels)] {
			if r.Circuit != perfect.Circuit {
				t.Fatalf("row grouping broken at %s/%s", perfect.Circuit, r.Circuit)
			}
			if r.Diagnosed == 0 {
				t.Errorf("%s noisy level diagnosed nothing", r.Circuit)
			}
			// The robustness claim in miniature: the vote-threshold path is
			// at least as sound as hard intersection over the same verdicts.
			if r.RobustMisses > r.BaselineMisses {
				t.Errorf("%s p=%.2f: robust misses %d exceed baseline misses %d",
					r.Circuit, r.Intermittent, r.RobustMisses, r.BaselineMisses)
			}
			if r.UnknownFrac < 0 || r.UnknownFrac > 1 {
				t.Errorf("%s: unknown fraction %v out of range", r.Circuit, r.UnknownFrac)
			}
		}
	}
	text := FormatNoiseSweep(rows)
	for _, want := range []string{"Noise sweep", "robust DR", "baseline DR", "s38584"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted sweep missing %q", want)
		}
	}
}

// TestNoiseVoteThresholdsSoundUnderAborts checks the robust diagnosis at
// every vote threshold the noise sweep uses against a property it does
// not compute itself: when the tester only aborts sessions (no flips, the
// fault always active), every verdict it does deliver is correct and an
// abort can only withhold evidence, so each detected fault's candidate
// set must still contain every cell the fault really fails. Checked
// through a circuit sweep and through SOC core sweeps on socmini.
func TestNoiseVoteThresholdsSoundUnderAborts(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, lvl := range noiseLevels {
		if seen[lvl.vote] {
			continue
		}
		seen[lvl.vote] = true
		o := core.Options{
			Scheme:        partition.TwoStep{},
			Groups:        4,
			Partitions:    table2Partitions,
			Patterns:      128,
			Noise:         noise.Model{Intermittent: 1, Abort: 0.3, Seed: 11},
			Retry:         bist.RetryPolicy{MaxRetries: 1},
			VoteThreshold: lvl.vote,
			Workers:       2,
		}
		check := func(what string, fds []*core.FaultDiagnosis, st *core.Study) {
			t.Helper()
			if st.Diagnosed == 0 || st.Reliability.Unknown == 0 {
				t.Fatalf("vote=%d %s: %d diagnosed, %d unknown verdicts; the check exerts no pressure",
					lvl.vote, what, st.Diagnosed, st.Reliability.Unknown)
			}
			for _, fd := range fds {
				if fd.Detected && !fd.Result.Candidates.SupersetOf(fd.Actual) {
					t.Errorf("vote=%d %s: candidates %v miss failing cells of %v",
						lvl.vote, what, fd.Result.Candidates, fd.Actual)
				}
			}
		}

		cb, err := core.NewCircuitBench(benchgen.MustGenerate("s953"), o)
		if err != nil {
			t.Fatal(err)
		}
		var fds []*core.FaultDiagnosis
		st := cb.RunObserved(sim.SampleFaults(cb.Faults(), 60, 2), func(fd *core.FaultDiagnosis) { fds = append(fds, fd) })
		check("s953", fds, st)

		sb, err := core.NewSOCBench(s, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NumCores(); i++ {
			fds = nil
			st, err := sb.RunCoreObservedContext(context.Background(), i, sim.SampleFaults(sb.CoreFaults(i), 30, 2),
				func(fd *core.FaultDiagnosis) { fds = append(fds, fd) })
			if err != nil {
				t.Fatal(err)
			}
			check("socmini core "+s.Cores[i].Name, fds, st)
		}
	}
}

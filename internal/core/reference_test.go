package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/diagnosis"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/soc"
)

// diagnoseFault derives session verdicts — deterministic for a perfect
// tester, tri-state with retries and voting under noise — and fills in the
// candidate sets. It is the independent oracle of the diagnosis step:
// fresh Verdicts per call, and one Candidates bitset per partition prefix
// where the production worker reuses its buffers and takes every prefix
// count from one CandidateCounts pass.
func diagnoseFault(o Options, eng *bist.Engine, diag *diagnosis.Diagnoser, good []*sim.Response, blocks []*sim.Block, faulty []*sim.Response, fd *FaultDiagnosis) {
	if !fd.Detected {
		return
	}
	var v *bist.Verdicts
	if o.Noise.Enabled() {
		// Fork a per-fault substream keyed by the fault's identity so the
		// noise a fault sees is independent of diagnosis order.
		m := o.Noise.Fork(uint64(int64(fd.Fault.Net)+1), uint64(int64(fd.Fault.Gate)+1),
			uint64(int64(fd.Fault.Pin)+1), uint64(fd.Fault.Stuck))
		var rel *bist.Reliability
		v, rel = eng.NoisyVerdicts(good, faulty, blocks, m, o.Retry)
		fd.Reliability = rel
		fd.Baseline = diag.Diagnose(v)
		fd.Result = diag.DiagnoseRobust(v, o.VoteThreshold)
	} else {
		v = eng.Verdicts(good, faulty, blocks)
		fd.Result = diag.DiagnoseRobust(v, o.VoteThreshold)
	}
	fd.CandidatesByPartition = make([]int, o.Partitions)
	for k := 1; k <= o.Partitions; k++ {
		fd.CandidatesByPartition[k-1] = diag.Candidates(v, k).Len()
	}
}

// referenceDiagnosis is the sweep's oracle for one fault of a circuit
// bench, independent of production on both sides: the full-pass
// reference simulator (FaultSim.RunReference, neither the event engine
// the sweeps and DiagnoseFault run nor the batch kernel) followed by the
// diagnoseFault oracle.
func referenceDiagnosis(b *CircuitBench, f sim.Fault) *FaultDiagnosis {
	res := b.fs.RunReference(f)
	fd := &FaultDiagnosis{Fault: f, Actual: res.FailingCells, Detected: res.Detected()}
	diagnoseFault(b.Opts, b.art.Engine, b.art.Diag, b.art.Good, b.art.Blocks, res.Faulty, fd)
	return fd
}

// referenceSOCDiagnosis is referenceDiagnosis for a fault in one core of
// an SOC bench: the core's full-pass reference result is spliced into the
// fault-free meta-chain responses at the core's cell range, here rather
// than by the soc package's own splicing.
func referenceSOCDiagnosis(b *SOCBench, core int, f sim.Fault) *FaultDiagnosis {
	local := b.fs.CoreSims()[core].RunReference(f)
	lo, _ := b.SOC.CellRange(core)
	actual := bitset.New(b.SOC.NumCells())
	for _, cell := range local.FailingCells.Elems() {
		actual.Add(lo + cell)
	}
	good := b.fs.Good()
	faulty := make([]*sim.Response, len(good))
	for bi, g := range good {
		next := slices.Clone(g.Next)
		copy(next[lo:], local.Faulty[bi].Next)
		faulty[bi] = &sim.Response{Next: next}
	}
	fd := &FaultDiagnosis{Fault: f, Actual: actual, Detected: !actual.Empty()}
	diagnoseFault(b.Opts, b.art.Engine, b.art.Diag, good, b.fs.Blocks(), faulty, fd)
	return fd
}

// TestWorkerMatchesReference pins the production diagnosis step — one
// reused worker, as a sweep lane runs it — to the diagnoseFault oracle
// over the same simulated responses: s953 scanned as one and two chains
// and the socmini SOC, with the tester noise model off and on, at vote
// thresholds 0, 1 and 2.
func TestWorkerMatchesReference(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	c := benchgen.MustGenerate("s953")
	for _, noisy := range []bool{false, true} {
		for _, vote := range []int{0, 1, 2} {
			o := baseOpts(partition.TwoStep{})
			if noisy {
				o = equivNoisyOpts(partition.TwoStep{})
			}
			o.VoteThreshold = vote
			for _, chains := range []int{1, 2} {
				o := o
				o.Chains = chains
				t.Run(fmt.Sprintf("s953x%d/noisy=%t/vote=%d", chains, noisy, vote), func(t *testing.T) {
					b, err := NewCircuitBench(c, o)
					if err != nil {
						t.Fatal(err)
					}
					w := b.worker()
					for i, f := range sim.SampleFaults(b.Faults(), 30, 9) {
						res := b.fs.Run(f)
						want := &FaultDiagnosis{Fault: res.Fault, Actual: res.FailingCells, Detected: res.Detected()}
						diagnoseFault(b.Opts, b.art.Engine, b.art.Diag, b.art.Good, b.art.Blocks, res.Faulty, want)
						got, err := w.diagnose(context.Background(), res.Fault, res.FailingCells, res.Detected(), res.Faulty)
						if err != nil {
							t.Fatal(err)
						}
						requireSameDiagnosis(t, fmt.Sprintf("fault %d (%s)", i, f.Describe(c)), got, want)
					}
				})
			}
			t.Run(fmt.Sprintf("socmini/noisy=%t/vote=%d", noisy, vote), func(t *testing.T) {
				b, err := NewSOCBench(s, o)
				if err != nil {
					t.Fatal(err)
				}
				w := b.worker()
				for core := range s.Cores {
					for i, f := range sim.SampleFaults(b.CoreFaults(core), 8, 9) {
						res := b.fs.Run(core, f)
						want := &FaultDiagnosis{Fault: res.Fault, Actual: res.FailingCells, Detected: res.Detected()}
						diagnoseFault(b.Opts, b.art.Engine, b.art.Diag, b.fs.Good(), b.fs.Blocks(), res.Faulty, want)
						got, err := w.diagnose(context.Background(), res.Fault, res.FailingCells, res.Detected(), res.Faulty)
						if err != nil {
							t.Fatal(err)
						}
						requireSameDiagnosis(t, fmt.Sprintf("core %d fault %d", core, i), got, want)
					}
				}
			})
		}
	}
}

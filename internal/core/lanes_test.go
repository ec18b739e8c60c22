package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// singleBatchSample returns the longest prefix of faults that the
// list-order packing of a cancellable sweep puts in one batch, requiring
// more lanes than one worker's first claim so helpers have some to share.
func singleBatchSample(t *testing.T, c *circuit.Circuit, faults []sim.Fault) []sim.Fault {
	t.Helper()
	n := len(faults)
	for n > 0 && len(sim.PlanBatches(c, faults[:n], sim.BatchOptions{ScanOrder: true}).Batches) > 1 {
		n--
	}
	if n < 4 {
		t.Fatalf("only %d faults fit one batch", n)
	}
	return faults[:n]
}

// checkSingleBatchSweep runs one single-batch sweep at several worker
// counts — every lane but the owner's first can land on a helper — and
// requires each per-fault diagnosis to equal the reference DiagnoseFault.
// The sweeps run under a cancellable context, as the CLIs' sweeps do.
func checkSingleBatchSweep(t *testing.T, faults []sim.Fault, run func(ctx context.Context, workers int, observe func(*FaultDiagnosis)) (*Study, error), ref func(sim.Fault) *FaultDiagnosis) {
	t.Helper()
	want := make([]*FaultDiagnosis, len(faults))
	for i, f := range faults {
		want[i] = ref(f)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var got []*FaultDiagnosis
		study, err := run(newCountdown(1<<30), workers, func(fd *FaultDiagnosis) { got = append(got, fd) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if study.PlanBatches != 1 {
			t.Fatalf("workers=%d: sweep ran %d batches, want a single batch", workers, study.PlanBatches)
		}
		if len(got) != len(faults) {
			t.Fatalf("workers=%d: observed %d of %d faults", workers, len(got), len(faults))
		}
		for i := range faults {
			requireSameDiagnosis(t, fmt.Sprintf("workers=%d fault %d", workers, i), got[i], want[i])
		}
	}
}

// TestSingleBatchCircuitSweepMatchesReference: a circuit sweep whose
// faults all pack into one batch fans its lanes out over every worker
// and still reproduces DiagnoseFault bit for bit, noise off and on.
func TestSingleBatchCircuitSweepMatchesReference(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	for _, noisy := range []bool{false, true} {
		o := baseOpts(partition.TwoStep{})
		if noisy {
			o = equivNoisyOpts(partition.TwoStep{})
		}
		b, err := NewCircuitBench(c, o)
		if err != nil {
			t.Fatal(err)
		}
		faults := singleBatchSample(t, c, sim.SampleFaults(b.Faults(), 40, 4))
		t.Run(fmt.Sprintf("noisy=%t", noisy), func(t *testing.T) {
			checkSingleBatchSweep(t, faults, func(ctx context.Context, workers int, observe func(*FaultDiagnosis)) (*Study, error) {
				o := b.Opts
				o.Workers = workers
				wb, err := NewCircuitBench(c, o)
				if err != nil {
					return nil, err
				}
				return wb.RunObservedContext(ctx, faults, observe)
			}, b.DiagnoseFault)
		})
	}
}

// TestSingleBatchSOCSweepMatchesReference is the SOC core-sweep
// counterpart: each core's sample is one batch, as in the paper's SOC
// workload.
func TestSingleBatchSOCSweepMatchesReference(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	for _, noisy := range []bool{false, true} {
		o := baseOpts(partition.TwoStep{})
		if noisy {
			o = equivNoisyOpts(partition.TwoStep{})
		}
		b, err := NewSOCBench(s, o)
		if err != nil {
			t.Fatal(err)
		}
		for core := 0; core < s.NumCores(); core++ {
			faults := singleBatchSample(t, s.Cores[core].Circuit, sim.SampleFaults(b.CoreFaults(core), 40, 8))
			t.Run(fmt.Sprintf("noisy=%t/core=%d", noisy, core), func(t *testing.T) {
				checkSingleBatchSweep(t, faults, func(ctx context.Context, workers int, observe func(*FaultDiagnosis)) (*Study, error) {
					o := b.Opts
					o.Workers = workers
					wb, err := NewSOCBench(s, o)
					if err != nil {
						return nil, err
					}
					return wb.RunCoreObservedContext(ctx, core, faults, observe)
				}, func(f sim.Fault) *FaultDiagnosis { return b.DiagnoseFault(core, f) })
			})
		}
	}
}

// helperPanicLanes wraps a worker's laneSim. The owner (the first worker
// to build one, since the single batch's head runs before any lane is
// published) holds its lanes until a helper starts one; the helper's
// first materialization panics and records the lane it was on.
type helperPanicLanes struct {
	laneSim
	owner    bool
	started  chan struct{}
	once     *sync.Once
	panicked *atomic.Int64
}

func (l *helperPanicLanes) materialize(bs *sim.BatchScratch, k int) (sim.Fault, *bitset.Set, bool, []*sim.Response) {
	if l.owner {
		select {
		case <-l.started:
		case <-time.After(10 * time.Second):
			panic("core: no helper joined the single batch")
		}
		return l.laneSim.materialize(bs, k)
	}
	l.once.Do(func() { close(l.started) })
	l.panicked.Store(int64(k))
	panic("injected helper fault")
}

// TestLanePanicOnHelperWorker: a panic in a lane that a helper worker —
// not the batch's owner — runs surfaces as a *WorkerError naming the
// batch, the lane and the fault being diagnosed.
func TestLanePanicOnHelperWorker(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	o := baseOpts(partition.TwoStep{})
	o.Workers = 2
	b, err := NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	faults := singleBatchSample(t, c, sim.SampleFaults(b.Faults(), 40, 4))
	var built atomic.Int32
	var panicked atomic.Int64
	started, once := make(chan struct{}), &sync.Once{}
	sw := sweep{o: b.Opts, c: b.Circuit, eng: b.art.Engine, diag: b.art.Diag, good: b.art.Good, blocks: b.art.Blocks,
		fork: func() laneSim {
			fs := b.fs.Fork()
			return &helperPanicLanes{laneSim: &circuitLanes{fs: fs, sc: fs.NewScratch()},
				owner: built.Add(1) == 1, started: started, once: once, panicked: &panicked}
		}}
	ctx := newCountdown(1 << 30)
	study, err := sw.run(ctx, faults, nil)
	if study.PlanBatches != 1 {
		t.Fatalf("sweep ran %d batches, want a single batch", study.PlanBatches)
	}
	var we *pipeline.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v (%T), want *WorkerError", err, err)
	}
	lane := int(panicked.Load())
	plan := b.Opts.Cache.Plan(c, faults, sweepOptions(ctx, b.Opts))
	wantDetail := plan.Batches[0].Faults[lane].Describe(c)
	if we.Job != 0 || we.Lane != lane || we.Detail != wantDetail || we.Value != "injected helper fault" {
		t.Fatalf("WorkerError = job %d lane %d detail %q value %v, want job 0 lane %d detail %q",
			we.Job, we.Lane, we.Detail, we.Value, lane, wantDetail)
	}
}

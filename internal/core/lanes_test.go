package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// singleJobSample returns the longest prefix of faults that a sweep runs
// as one job, requiring more lanes than one worker's first claim so
// helpers have some to share.
func singleJobSample(t *testing.T, faults []sim.Fault) []sim.Fault {
	t.Helper()
	faults = faults[:min(len(faults), sweepJob)]
	if len(faults) < 4 {
		t.Fatalf("only %d faults in the single job", len(faults))
	}
	return faults
}

// helperGate wraps a sweep's per-worker simulator so that the lanes of a
// single-job sweep provably run on a helper worker: the job's owner — the
// first worker to build a simulator, since a job's head runs before its
// lanes are published — waits in its first lane until a helper has
// started one. onHelper, when set, runs before every helper lane.
type helperGate struct {
	built    atomic.Int32
	helped   atomic.Int32 // lanes run by helpers
	started  chan struct{}
	once     sync.Once
	onHelper func(f sim.Fault)
}

func newHelperGate() *helperGate { return &helperGate{started: make(chan struct{})} }

func (g *helperGate) wrap(fork func() sweepWorker) func() sweepWorker {
	return func() sweepWorker {
		w := fork()
		run := w.run
		if g.built.Add(1) == 1 {
			w.run = func(f sim.Fault) (*bitset.Set, bool, []*sim.Response) {
				select {
				case <-g.started:
				case <-time.After(10 * time.Second):
					panic("core: no helper joined the single job")
				}
				return run(f)
			}
			return w
		}
		w.run = func(f sim.Fault) (*bitset.Set, bool, []*sim.Response) {
			g.once.Do(func() { close(g.started) })
			g.helped.Add(1)
			if g.onHelper != nil {
				g.onHelper(f)
			}
			return run(f)
		}
		return w
	}
}

// checkSingleJobSweep runs one single-job sweep at several worker
// counts and requires each per-fault diagnosis to equal the independent
// reference. With several workers a helperGate makes helpers run some of
// the job's lanes. The sweeps run under a cancellable context, as the
// CLIs' sweeps do.
func checkSingleJobSweep(t *testing.T, faults []sim.Fault, mkSweep func(workers int) (sweep, error), ref func(sim.Fault) *FaultDiagnosis) {
	t.Helper()
	want := make([]*FaultDiagnosis, len(faults))
	for i, f := range faults {
		want[i] = ref(f)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		sw, err := mkSweep(workers)
		if err != nil {
			t.Fatal(err)
		}
		gate := newHelperGate()
		if workers > 1 {
			sw.fork = gate.wrap(sw.fork)
		}
		var got []*FaultDiagnosis
		if _, err := sw.run(newCountdown(1<<30), faults, func(fd *FaultDiagnosis) { got = append(got, fd) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers > 1 && gate.helped.Load() == 0 {
			t.Fatalf("workers=%d: no helper ran a lane", workers)
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
// faults all fit one job fans its lanes out over helper workers and still
// reproduces the independent reference bit for bit, noise off and on.
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
		faults := singleJobSample(t, sim.SampleFaults(b.Faults(), 40, 4))
		t.Run(fmt.Sprintf("noisy=%t", noisy), func(t *testing.T) {
			checkSingleJobSweep(t, faults, func(workers int) (sweep, error) {
				o := b.Opts
				o.Workers = workers
				wb, err := NewCircuitBench(c, o)
				if err != nil {
					return sweep{}, err
				}
				return wb.sweep(), nil
			}, func(f sim.Fault) *FaultDiagnosis { return referenceDiagnosis(b, f) })
		})
	}
}

// TestSingleBatchSOCSweepMatchesReference is the SOC core-sweep
// counterpart: each core's sample is one job, as in the paper's SOC
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
			faults := singleJobSample(t, sim.SampleFaults(b.CoreFaults(core), 40, 8))
			t.Run(fmt.Sprintf("noisy=%t/core=%d", noisy, core), func(t *testing.T) {
				checkSingleJobSweep(t, faults, func(workers int) (sweep, error) {
					o := b.Opts
					o.Workers = workers
					wb, err := NewSOCBench(s, o)
					if err != nil {
						return sweep{}, err
					}
					return wb.sweep(core), nil
				}, func(f sim.Fault) *FaultDiagnosis { return referenceSOCDiagnosis(b, core, f) })
			})
		}
	}
}

// TestLanePanicOnHelperWorker: a panic in a lane that a helper worker —
// not the job's owner — runs surfaces as a *WorkerError naming the job,
// the lane and the fault being diagnosed.
func TestLanePanicOnHelperWorker(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	o := baseOpts(partition.TwoStep{})
	o.Workers = 2
	b, err := NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	faults := singleJobSample(t, sim.SampleFaults(b.Faults(), 40, 4))
	var panicked atomic.Int64
	gate := newHelperGate()
	gate.onHelper = func(f sim.Fault) {
		panicked.Store(int64(slices.Index(faults, f)))
		panic("injected helper fault")
	}
	sw := b.sweep()
	sw.fork = gate.wrap(sw.fork)
	_, err = sw.run(newCountdown(1<<30), faults, nil)
	var we *pipeline.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v (%T), want *WorkerError", err, err)
	}
	lane := int(panicked.Load())
	if lane < 0 {
		t.Fatal("the panicking helper ran a fault outside the sample")
	}
	wantDetail := faults[lane].Describe(c)
	if we.Job != 0 || we.Lane != lane || we.Detail != wantDetail || we.Value != "injected helper fault" {
		t.Fatalf("WorkerError = job %d lane %d detail %q value %v, want job 0 lane %d detail %q",
			we.Job, we.Lane, we.Detail, we.Value, lane, wantDetail)
	}
}

package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// This file is the context-aware face of the benches: cancellable fault
// sweeps that degrade to a sound partial study, and per-fault diagnosis
// that degrades to a conservative candidate superset when a deadline
// lands mid-session. The context-free APIs in core.go are thin wrappers
// over these with context.Background().

// RunContext is Run with cancellation: on a context deadline or cancel
// the sweep stops claiming jobs and lanes, drains the ones in flight,
// and returns the partial study aggregating the contiguous prefix of
// faults it finished (Study.Completeness records how far it got)
// together with ctx's error. A nil error means the study is complete.
func (b *CircuitBench) RunContext(ctx context.Context, faults []sim.Fault) (*Study, error) {
	return b.RunObservedContext(ctx, faults, nil)
}

// RunObservedContext is RunContext with RunObserved's per-fault callback;
// observe sees exactly the faults the study aggregates, in fault order.
func (b *CircuitBench) RunObservedContext(ctx context.Context, faults []sim.Fault, observe func(*FaultDiagnosis)) (*Study, error) {
	release := b.Opts.Cache.PinCircuit(b.art)
	defer release()
	return b.sweep().run(ctx, faults, observe)
}

// sweep is the bench's fault sweep; every worker simulates on its own
// fork of the bench's FaultSim.
func (b *CircuitBench) sweep() sweep {
	return sweep{o: b.Opts, c: b.Circuit, fork: func() sweepWorker {
		fs := b.fs.Fork()
		sc := fs.NewScratch()
		return sweepWorker{
			run: func(f sim.Fault) (*bitset.Set, bool, []*sim.Response) {
				res := fs.RunInto(f, sc)
				return res.FailingCells, res.Detected(), res.Faulty
			},
			diag: b.worker(),
		}
	}}
}

// RunCoreContext is RunCore with cancellation; semantics mirror
// RunContext (contiguous fault prefix, completeness stamp, ctx error).
func (b *SOCBench) RunCoreContext(ctx context.Context, core int, faults []sim.Fault) (*Study, error) {
	return b.RunCoreObservedContext(ctx, core, faults, nil)
}

// RunCoreObservedContext is RunCoreContext with a per-fault callback,
// mirroring RunObservedContext: observe sees exactly the faults the
// study aggregates, in fault order. Shard workers use it to capture the
// per-fault diagnoses an SOC shard ships back as verdict deltas.
func (b *SOCBench) RunCoreObservedContext(ctx context.Context, core int, faults []sim.Fault, observe func(*FaultDiagnosis)) (*Study, error) {
	release := b.Opts.Cache.PinSOC(b.art)
	defer release()
	return b.sweep(core).run(ctx, faults, observe)
}

// socWorker is the reusable state of one SOC sweep worker: a fork of the
// SOC simulator, whose per-core simulators share one event scratch, its
// splicing scratch, and the diagnosis buffers. It serves sweeps over any
// core and is pooled on the artifact set (pipeline.SOCArtifacts.Workers),
// so the per-core sweeps of an SOC diagnosis, and later diagnoses over
// the same artifacts, reuse it instead of building their own.
type socWorker struct {
	fs   *soc.FaultSim
	sc   *soc.Scratch
	diag *diagWorker
}

// sweep is the bench's sweep over faults of one core; every worker
// simulates on a pooled socWorker, which it puts back when the sweep
// ends.
func (b *SOCBench) sweep(core int) sweep {
	return sweep{o: b.Opts, c: b.SOC.Cores[core].Circuit, fork: func() sweepWorker {
		pool := b.art.Workers()
		st, _ := pool.Get().(*socWorker)
		if st == nil {
			fs := b.art.Sim.Fork()
			st = &socWorker{fs: fs, sc: fs.NewScratch(), diag: b.worker()}
		}
		// Only the runtime knobs differ between benches over one artifact
		// set; everything else the diagnosis worker holds comes from it.
		st.diag.o = b.Opts
		return sweepWorker{
			run: func(f sim.Fault) (*bitset.Set, bool, []*sim.Response) {
				res := st.fs.RunInto(core, f, st.sc)
				return res.FailingCells, res.Detected(), res.Faulty
			},
			diag: st.diag,
			put:  func() { pool.Put(st) },
		}
	}}
}

// sweepJob is the number of consecutive faults in one RunLanes job of a
// sweep. A job has no shared head work, so the size only sets how often
// a worker takes the scheduler's lock and how many faults a helper can
// share in the last jobs; 64 keeps both small against a fault's
// diagnosis.
const sweepJob = 64

// sweep is the one fault-sweep body behind the circuit and SOC benches:
// the fault list is cut into runs of sweepJob faults in list order, and
// every fault — one event-driven simulation and one diagnosis — is a
// lane that any worker may run (pipeline.RunLanes).
type sweep struct {
	o Options
	c *circuit.Circuit // the netlist the faults live in
	// fork sets up one worker.
	fork func() sweepWorker
}

// sweepWorker is one sweep worker's state: its simulator view and its
// diagnosis buffers.
type sweepWorker struct {
	run  faultRun
	diag *diagWorker
	// put hands the state back for a later sweep once this one ends; nil
	// when the state is not pooled.
	put func()
	// broken marks a worker whose lane panicked: its scratch may hold a
	// fault half run, so it is not put back.
	broken bool
}

// faultRun simulates one fault on a worker's own fork of the event
// engine — a circuit's FaultSim, or an SOC's restricted to one core. The
// returned cells and responses alias the worker's scratch and are valid
// until its next call.
type faultRun func(f sim.Fault) (actual *bitset.Set, detected bool, faulty []*sim.Response)

func (sw sweep) run(ctx context.Context, faults []sim.Fault, observe func(*FaultDiagnosis)) (*Study, error) {
	results := make([]*FaultDiagnosis, len(faults))
	ex := pipeline.Executor{Workers: sw.o.Workers, Retry: sw.o.Retry.Policy()}
	jobs := (len(faults) + sweepJob - 1) / sweepJob
	var (
		mu      sync.Mutex
		workers []*sweepWorker
	)
	// A job's handle is the list index of its first fault.
	err := pipeline.RunLanes(ctx, ex, jobs, func() pipeline.LaneJob[int] {
		w := sw.fork()
		mu.Lock()
		workers = append(workers, &w)
		mu.Unlock()
		return pipeline.LaneJob[int]{
			Head: func(j int) (int, int, error) {
				lo := j * sweepJob
				return lo, min(sweepJob, len(faults)-lo), nil
			},
			Lane: func(lo, _, k int) error {
				i := lo + k
				defer w.annotatePanic(k, faults[i], sw.c)
				actual, detected, faulty := w.run(faults[i])
				// The sweep's ctx is polled per job and lane claim; a lane
				// always observes every partition.
				results[i], _ = w.diag.diagnose(context.Background(), faults[i], actual, detected, faulty)
				return nil
			},
		}
	})
	// RunLanes has joined every worker, so no state is in use.
	for _, w := range workers {
		if w.put != nil && !w.broken {
			w.put()
		}
	}
	// Keep the longest contiguous prefix of completed diagnoses. Results
	// past the first gap (jobs cancelled or abandoned mid-flight) are
	// dropped: a prefix has a clean meaning — "the sweep ran out of time
	// after fault n" — where a gappy subset does not.
	if n := slices.Index(results, nil); n >= 0 {
		clear(results[n:])
	}
	return MergeObserved(sw.o, sw.o.Scheme.Name(), results, observe), err
}

// annotatePanic re-raises a panic unwinding out of one of w's lanes
// wrapped in a pipeline.JobPanic carrying the lane and the fault's
// description, so the executor's WorkerError can report which fault's
// diagnosis blew up, and marks w broken.
func (w *sweepWorker) annotatePanic(lane int, f sim.Fault, c *circuit.Circuit) {
	if r := recover(); r != nil {
		w.broken = true
		panic(&pipeline.JobPanic{Lane: lane, Detail: f.Describe(c), Value: r})
	}
}

// DiagnoseFaultContext is DiagnoseFault with a deadline: verdicts are
// collected partition by partition (bist.CellVerdictsUpTo) and a context
// ending mid-collection degrades to a diagnosis of the observed prefix
// — a sound, conservative superset of the full candidate set, because
// each further partition only ever removes candidates (or, under a vote
// threshold, only ever adds pass votes). The returned FaultDiagnosis
// carries Completeness (partitions observed / scheduled) and
// CandidatesByPartition truncated to the observed prefix; the ctx error
// is returned alongside it. Degraded collection models a perfect tester;
// with a noise model configured the full noisy flow runs if the context
// is still alive at entry.
func (b *CircuitBench) DiagnoseFaultContext(ctx context.Context, f sim.Fault) (*FaultDiagnosis, error) {
	res := b.fs.Run(f)
	return b.worker().diagnose(ctx, res.Fault, res.FailingCells, res.Detected(), res.Faulty)
}

// DiagnoseFaultContext mirrors CircuitBench.DiagnoseFaultContext for a
// fault injected into one core of the SOC.
func (b *SOCBench) DiagnoseFaultContext(ctx context.Context, core int, f sim.Fault) (*FaultDiagnosis, error) {
	res := b.fs.Run(core, f)
	return b.worker().diagnose(ctx, res.Fault, res.FailingCells, res.Detected(), res.Faulty)
}

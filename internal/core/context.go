package core

import (
	"context"
	"slices"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// This file is the context-aware face of the benches: cancellable fault
// sweeps that degrade to a sound partial study, and per-fault diagnosis
// that degrades to a conservative candidate superset when a deadline
// lands mid-session. The context-free APIs in core.go are thin wrappers
// over these with context.Background().

// sweepOptions picks the batch packing for a sweep. A cancellable sweep
// packs faults in list order (sim.BatchOptions.ScanOrder): the executor
// claims batch indices monotonically and drains in-flight claims, so the
// completed diagnoses form a contiguous prefix of the fault list — the
// partial study is a prefix of the full run, bit for bit. An
// uncancellable sweep keeps the cone-aware greedy packing, which fills
// lanes better. The lane cap (Options.Lanes; 0 = engine default) applies
// either way.
func sweepOptions(ctx context.Context, o Options) sim.BatchOptions {
	return sim.BatchOptions{MaxLanes: o.Lanes, ScanOrder: ctx.Done() != nil}
}

// RunContext is Run with cancellation: on a context deadline or cancel
// the sweep stops claiming batches and lanes, drains the ones in flight,
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
	sw := sweep{o: b.Opts, c: b.Circuit, eng: b.art.Engine, diag: b.art.Diag, good: b.art.Good, blocks: b.art.Blocks,
		fork: func() laneSim {
			fs := b.fs.Fork()
			return &circuitLanes{fs: fs, sc: fs.NewScratch()}
		}}
	return sw.run(ctx, faults, observe)
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
	sw := sweep{o: b.Opts, c: b.SOC.Cores[core].Circuit, eng: b.art.Engine, diag: b.art.Diag, good: b.fs.Good(), blocks: b.fs.Blocks(),
		fork: func() laneSim {
			fs := b.fs.Fork()
			return &socLanes{fs: fs, core: core, sc: fs.NewScratch()}
		}}
	return sw.run(ctx, faults, observe)
}

// sweep is the one fault-sweep body behind the circuit and SOC benches:
// the faults of netlist c are packed into a batch plan, each batch runs
// the kernel once on the worker that claimed it, and its lanes — one
// materialization and diagnosis per fault — fan out over every worker
// with no batch left to claim (pipeline.RunLanes).
type sweep struct {
	o      Options
	c      *circuit.Circuit // the netlist the faults live in
	eng    *bist.Engine
	diag   *diagnosis.Diagnoser
	good   []*sim.Response
	blocks []*sim.Block
	// fork builds one worker's simulator view.
	fork func() laneSim
}

// laneSim is one worker's view of the fault simulator a sweep runs on: a
// fork of a circuit's FaultSim, or of an SOC's restricted to one core.
type laneSim interface {
	newBatchScratch(p *sim.BatchPlan) *sim.BatchScratch
	runBatch(ctx context.Context, cb *sim.CompiledBatch, bs *sim.BatchScratch) error
	// materialize reads lane k of a batch run into bs — possibly another
	// worker's — into this worker's own scratch.
	materialize(bs *sim.BatchScratch, k int) (f sim.Fault, actual *bitset.Set, detected bool, faulty []*sim.Response)
}

func (sw sweep) run(ctx context.Context, faults []sim.Fault, observe func(*FaultDiagnosis)) (*Study, error) {
	results := make([]*FaultDiagnosis, len(faults))
	plan := sw.o.Cache.Plan(sw.c, faults, sweepOptions(ctx, sw.o))
	ex := pipeline.Executor{Workers: sw.o.Workers, Retry: sw.o.Retry.Policy()}
	err := pipeline.RunLanes(ctx, ex, len(plan.Batches), func() pipeline.LaneJob[*sim.BatchScratch] {
		ls := sw.fork()
		w := newDiagWorker(sw.o, sw.eng, sw.diag, sw.good, sw.blocks)
		// The batch scratch is this worker's own kernel output; a worker
		// that only ever helps with other workers' lanes never needs one.
		var own *sim.BatchScratch
		return pipeline.LaneJob[*sim.BatchScratch]{
			Head: func(pi int) (*sim.BatchScratch, int, error) {
				if own == nil {
					own = ls.newBatchScratch(plan)
				}
				cb := plan.Batches[pi]
				if err := ls.runBatch(ctx, cb, own); err != nil {
					return nil, 0, err
				}
				return own, len(cb.Index), nil
			},
			Lane: func(bs *sim.BatchScratch, pi, k int) error {
				cb := plan.Batches[pi]
				defer annotatePanic(k, cb, sw.c)
				f, actual, detected, faulty := ls.materialize(bs, k)
				// The sweep's ctx is polled per batch and lane claim; a
				// lane always observes every partition.
				results[cb.Index[k]], _ = w.diagnose(context.Background(), f, actual, detected, faulty)
				return nil
			},
		}
	})
	// Keep the longest contiguous prefix of completed diagnoses. Results
	// past the first gap (batches cancelled or abandoned mid-flight) are
	// dropped: a prefix has a clean meaning — "the sweep ran out of time
	// after fault n" — where a gappy subset does not.
	if n := slices.Index(results, nil); n >= 0 {
		clear(results[n:])
	}
	study := MergeObserved(sw.o, sw.o.Scheme.Name(), results, observe)
	study.PlanBatches = len(plan.Batches)
	study.PlanFill = plan.Fill()
	return study, err
}

type circuitLanes struct {
	fs *sim.FaultSim
	sc *sim.Scratch
}

func (l *circuitLanes) newBatchScratch(p *sim.BatchPlan) *sim.BatchScratch {
	return l.fs.NewBatchScratch(p)
}

func (l *circuitLanes) runBatch(ctx context.Context, cb *sim.CompiledBatch, bs *sim.BatchScratch) error {
	return l.fs.RunBatchContext(ctx, cb, bs)
}

func (l *circuitLanes) materialize(bs *sim.BatchScratch, k int) (sim.Fault, *bitset.Set, bool, []*sim.Response) {
	res := l.fs.MaterializeBatch(bs, k, l.sc)
	return res.Fault, res.FailingCells, res.Detected(), res.Faulty
}

type socLanes struct {
	fs   *soc.FaultSim
	core int
	sc   *soc.Scratch
}

func (l *socLanes) newBatchScratch(p *sim.BatchPlan) *sim.BatchScratch {
	return l.fs.NewCoreBatchScratch(l.core, p)
}

func (l *socLanes) runBatch(ctx context.Context, cb *sim.CompiledBatch, bs *sim.BatchScratch) error {
	return l.fs.RunBatchContext(ctx, l.core, cb, bs)
}

func (l *socLanes) materialize(bs *sim.BatchScratch, k int) (sim.Fault, *bitset.Set, bool, []*sim.Response) {
	res := l.fs.MaterializeBatch(l.core, bs, k, l.sc)
	return res.Fault, res.FailingCells, res.Detected(), res.Faulty
}

// annotatePanic re-raises a panic unwinding out of a batch lane wrapped
// in a pipeline.JobPanic carrying the lane and fault identity, so the
// executor's WorkerError can report which fault's diagnosis blew up.
func annotatePanic(lane int, cb *sim.CompiledBatch, c *circuit.Circuit) {
	if r := recover(); r != nil {
		detail := ""
		if lane >= 0 && lane < len(cb.Faults) {
			detail = cb.Faults[lane].Describe(c)
		}
		panic(&pipeline.JobPanic{Lane: lane, Detail: detail, Value: r})
	}
}

// DiagnoseFaultContext is DiagnoseFault with a deadline: verdicts are
// collected partition by partition (bist.VerdictsUpTo) and a context
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

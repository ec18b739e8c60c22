package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/lfsr"
	"repro/internal/pipeline"
	"repro/internal/pipeline/diskstore"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
)

// This file is the traced run: each operation is re-enacted with the layer
// calls core makes, in the order it makes them, each inside a span. The
// studies it produces are checked against the reference like the untraced
// ones; the trace is trusted only if they match.

// counts are the per-layer counters of the traced operations.
type counts struct {
	bytesRead, bytesWritten          int64
	diskHits, diskMisses, diskWrites int
	planBatches, planFaults          int
	planSlots                        float64
	executions, diagnosed            int
	memHits, memLookups              int
	planHits, planLookups            int
}

func (c *counts) plan(p *sim.BatchPlan) {
	c.planBatches += len(p.Batches)
	c.planFaults += p.NumFaults()
	if f := p.Fill(); f > 0 {
		c.planSlots += float64(p.NumFaults()) / f
	}
}

func (c *counts) cache(before, after pipeline.Stats) {
	hits := after.Hits + after.SimHits - before.Hits - before.SimHits
	misses := after.Misses + after.SimMisses - before.Misses - before.SimMisses
	c.memHits += hits
	c.memLookups += hits + misses
	c.planHits += after.PlanHits - before.PlanHits
	c.planLookups += after.PlanHits + after.PlanMisses - before.PlanHits - before.PlanMisses
}

func (c *counts) fault(fd *core.FaultDiagnosis) {
	if fd.Detected {
		c.diagnosed++
	}
	if fd.Reliability != nil {
		c.executions += fd.Reliability.Executions
	}
}

func storeGet(rec *recorder, st *diskstore.Store, key string, cnt *counts) ([]byte, bool, error) {
	rec.begin(kStoreRead)
	data, err := st.Get(key)
	rec.end()
	switch {
	case err == nil:
		cnt.diskHits++
		cnt.bytesRead += int64(len(data))
		return data, true, nil
	case errors.Is(err, fs.ErrNotExist):
		cnt.diskMisses++
		return nil, false, nil
	}
	return nil, false, err
}

func storePut(rec *recorder, st *diskstore.Store, key string, data []byte, cnt *counts) error {
	rec.begin(kStoreWrite)
	err := st.Put(key, data)
	rec.end()
	cnt.diskWrites++
	cnt.bytesWritten += int64(len(data))
	return err
}

// specOf is the artifact content key core derives from its options.
func specOf(o core.Options) pipeline.Spec {
	return pipeline.Spec{
		Scheme:     o.Scheme,
		Groups:     o.Groups,
		Partitions: o.Partitions,
		Patterns:   o.Patterns,
		PRPGSeed:   o.PRPGSeed,
		PRPGPoly:   o.PRPGPoly,
		MISRPoly:   o.MISRPoly,
		Ideal:      o.Ideal,
		Chains:     o.Chains,
	}.Normalized()
}

// batchOptions is the packing core picks for a cancellable sweep.
func batchOptions(ctx context.Context, o core.Options) sim.BatchOptions {
	return sim.BatchOptions{MaxLanes: o.Lanes, ScanOrder: ctx.Done() != nil}
}

// coversSample checks a decoded plan against the sample it must sweep.
func coversSample(p *sim.BatchPlan, sample []sim.Fault) bool {
	if p.Kind() != sim.BatchStuckAt || p.NumFaults() != len(sample) {
		return false
	}
	for _, cb := range p.Batches {
		for k, i := range cb.Index {
			if cb.Faults[k] != sample[i] {
				return false
			}
		}
	}
	return true
}

// traceIn re-enacts a scandiag operation over the store in dir: the
// fetch-or-build of the simulation layer, the engine, the fault list,
// the fetch-or-build of cones and plan, and the sweep. The store keys are
// the benchmark's own, so traced and untraced operations never share
// blobs.
func (w *coldCircuit) traceIn(ctx context.Context, dir string, k int, rec *recorder, cnt *counts) ([]summary, error) {
	rec.begin(kOp)
	defer rec.end()

	rec.begin(kGenerate)
	c, err := benchgen.Generate(w.prof)
	rec.end()
	if err != nil {
		return nil, err
	}

	rec.begin(kLookup)
	st, err := diskstore.Open(dir, diskstore.Options{})
	spec := specOf(w.opts)
	fp := pipeline.CircuitFingerprint(c)
	simKey := "perfbench-sim|" + spec.Key(fp)
	rec.end()
	if err != nil {
		return nil, err
	}

	data, hit, err := storeGet(rec, st, simKey, cnt)
	if err != nil {
		return nil, err
	}
	var fsim *sim.FaultSim
	var good []*sim.Response
	if hit {
		rec.begin(kDecode)
		fsim, err = codec.DecodeSimLayer(c, data)
		if err == nil {
			good = goodResponses(fsim)
		}
		rec.end()
		if err != nil {
			return nil, err
		}
	} else {
		rec.begin(kPatterns)
		prpg, err := lfsr.New(spec.PRPGPoly, spec.PRPGSeed)
		var blocks []*sim.Block
		if err == nil {
			blocks = bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), spec.Patterns)
		}
		rec.end()
		if err != nil {
			return nil, err
		}
		rec.begin(kFaultFree)
		fsim = sim.NewFaultSim(c, blocks)
		good = goodResponses(fsim)
		rec.end()
		rec.begin(kEncode)
		data := codec.EncodeSimLayer(fsim)
		rec.end()
		if err := storePut(rec, st, simKey, data, cnt); err != nil {
			return nil, err
		}
	}
	blocks := fsim.Blocks()

	rec.begin(kEngine)
	plan := bist.Plan{Scheme: spec.Scheme, Groups: spec.Groups, Partitions: spec.Partitions, MISRPoly: spec.MISRPoly, Ideal: spec.Ideal}
	eng, err := bist.NewEngine(scan.SingleChainOrdered(scan.NaturalOrder(c.NumDFFs())), plan, spec.Patterns)
	var diag *diagnosis.Diagnoser
	if err == nil {
		diag, err = diagnosis.FromEngine(eng)
	}
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin(kGolden)
	eng.GoldenSignatures(good, blocks)
	rec.end()

	rec.begin(kFaultList)
	sample := w.smp.sample(sim.CollapseFaults(c, sim.FullFaultList(c)), k, 0)
	rec.end()

	opt := batchOptions(ctx, w.opts)
	rec.begin(kLookup)
	planKey := fmt.Sprintf("perfbench-plan|%s|%s|l%d|so%t", fp, pipeline.FaultSetHash(sample), opt.MaxLanes, opt.ScanOrder)
	conesKey := "perfbench-cones|" + fp
	rec.end()
	saved := 0
	if data, hit, err := storeGet(rec, st, conesKey, cnt); err != nil {
		return nil, err
	} else if hit {
		rec.begin(kDecode)
		saved, err = codec.DecodeCones(c, data)
		rec.end()
		if err != nil {
			return nil, err
		}
	}
	var bp *sim.BatchPlan
	if data, hit, err := storeGet(rec, st, planKey, cnt); err != nil {
		return nil, err
	} else if hit {
		rec.begin(kDecode)
		bp, err = codec.DecodeBatchPlan(c, data)
		if err == nil && !coversSample(bp, sample) {
			err = fmt.Errorf("stored plan does not cover the sample")
		}
		rec.end()
		if err != nil {
			return nil, err
		}
	} else {
		rec.begin(kPlan)
		bp = sim.PlanBatches(c, sample, opt)
		rec.end()
		rec.begin(kEncode)
		data := codec.EncodeBatchPlan(c, bp)
		rec.end()
		if err := storePut(rec, st, planKey, data, cnt); err != nil {
			return nil, err
		}
		if c.NumMemoizedCones() > saved {
			rec.begin(kEncode)
			data, _ := codec.EncodeCones(c)
			rec.end()
			if err := storePut(rec, st, conesKey, data, cnt); err != nil {
				return nil, err
			}
		}
	}
	cnt.plan(bp)

	env := diagEnv{opts: w.opts, eng: eng, diag: diag}
	base := fsim.Fork()
	fds, err := sweep(ctx, rec, env, bp, kKernel, kMaterialize, cnt, func() (batchRunner, []*sim.Response, []*sim.Block) {
		f := base.Fork()
		return &circuitRunner{fs: f, bs: f.NewBatchScratch(bp), sc: f.NewScratch()}, good, blocks
	})
	if err != nil {
		return nil, err
	}
	return []summary{tally(w.opts.Partitions, fds)}, nil
}

func goodResponses(fs *sim.FaultSim) []*sim.Response {
	good := make([]*sim.Response, len(fs.Blocks()))
	for i := range good {
		good[i] = fs.Good(i)
	}
	return good
}

// trace re-enacts a noisy SOC operation: the SOC bench lookup, then per
// core the plan lookup and the sweep.
func (w *noisySOC) trace(ctx context.Context, k int, rec *recorder, cnt *counts) ([]summary, error) {
	rec.begin(kOp)
	defer rec.end()
	cache := w.opts.Cache
	before := cache.Stats()
	rec.begin(kLookup)
	art, err := cache.SOC(w.s, specOf(w.opts))
	rec.end()
	if err != nil {
		return nil, err
	}
	if art != w.art {
		return nil, fmt.Errorf("traced lookup built new artifacts instead of hitting the bench's")
	}
	env := diagEnv{opts: w.opts, eng: art.Engine, diag: art.Diag}
	base := art.Sim.Fork()
	out := make([]summary, len(w.samples[k]))
	for i, sample := range w.samples[k] {
		rec.begin(kLookup)
		release := cache.PinSOC(art)
		bp := cache.Plan(w.s.Cores[i].Circuit, sample, batchOptions(ctx, w.opts))
		rec.end()
		cnt.plan(bp)
		fds, err := sweep(ctx, rec, env, bp, kSOCKernel, kSOCMaterialize, cnt, func() (batchRunner, []*sim.Response, []*sim.Block) {
			f := base.Fork()
			return &socRunner{fs: f, core: i, bs: f.NewCoreBatchScratch(i, bp), sc: f.NewScratch()}, f.Good(), f.Blocks()
		})
		release()
		if err != nil {
			return nil, err
		}
		out[i] = tally(w.opts.Partitions, fds)
	}
	cnt.cache(before, cache.Stats())
	return out, nil
}

// batchRunner is one executor worker's simulator: it runs a compiled
// batch and materializes the per-fault results of its lanes.
type batchRunner interface {
	run(ctx context.Context, cb *sim.CompiledBatch) error
	materialize(k int) (f sim.Fault, failing *bitset.Set, detected bool, faulty []*sim.Response)
}

type circuitRunner struct {
	fs *sim.FaultSim
	bs *sim.BatchScratch
	sc *sim.Scratch
}

func (r *circuitRunner) run(ctx context.Context, cb *sim.CompiledBatch) error {
	return r.fs.RunBatchContext(ctx, cb, r.bs)
}

func (r *circuitRunner) materialize(k int) (sim.Fault, *bitset.Set, bool, []*sim.Response) {
	res := r.fs.MaterializeBatch(r.bs, k, r.sc)
	return res.Fault, res.FailingCells, res.Detected(), res.Faulty
}

type socRunner struct {
	fs   *soc.FaultSim
	core int
	bs   *sim.BatchScratch
	sc   *soc.Scratch
}

func (r *socRunner) run(ctx context.Context, cb *sim.CompiledBatch) error {
	return r.fs.RunBatchContext(ctx, r.core, cb, r.bs)
}

func (r *socRunner) materialize(k int) (sim.Fault, *bitset.Set, bool, []*sim.Response) {
	res := r.fs.MaterializeBatch(r.core, r.bs, k, r.sc)
	return res.Fault, res.FailingCells, res.Detected(), res.Faulty
}

// diagEnv is what the diagnosis step of a sweep reads.
type diagEnv struct {
	opts core.Options
	eng  *bist.Engine
	diag *diagnosis.Diagnoser
}

// sweep runs a plan through pipeline.Executor the way core's sweeps do:
// each worker forks a simulator and owns its verdict and count buffers,
// each job runs one compiled batch and diagnoses its lanes.
func sweep(ctx context.Context, rec *recorder, env diagEnv, bp *sim.BatchPlan, kernel, mat spanKind, cnt *counts,
	newRunner func() (batchRunner, []*sim.Response, []*sim.Block)) ([]*core.FaultDiagnosis, error) {
	results := make([]*core.FaultDiagnosis, bp.NumFaults())
	rec.begin(kSweep)
	err := pipeline.Executor{Workers: env.opts.Workers, Retry: env.opts.Retry.Policy()}.RunBatchesContext(ctx, len(bp.Batches), func() func(int) error {
		wr := rec.child()
		r, good, blocks := newRunner()
		v, counts := env.eng.NewVerdicts(), make([]int, env.opts.Partitions)
		return func(pi int) error {
			cb := bp.Batches[pi]
			wr.begin(kJob)
			defer wr.end()
			wr.begin(kernel)
			err := r.run(ctx, cb)
			wr.end()
			if err != nil {
				return err
			}
			for k, i := range cb.Index {
				wr.begin(mat)
				f, failing, detected, faulty := r.materialize(k)
				wr.end()
				results[i] = diagnose(wr, env, f, failing, detected, faulty, good, blocks, v, counts)
			}
			return nil
		}
	})
	rec.merge()
	rec.end()
	if err != nil {
		return nil, err
	}
	for _, fd := range results {
		cnt.fault(fd)
	}
	return results, nil
}

// diagnose is the per-fault step of a core sweep: verdicts (tri-state with
// retries under noise), vote-threshold pruning, and the candidate counts
// by partition prefix.
func diagnose(rec *recorder, env diagEnv, f sim.Fault, failing *bitset.Set, detected bool, faulty, good []*sim.Response, blocks []*sim.Block, v *bist.Verdicts, counts []int) *core.FaultDiagnosis {
	fd := &core.FaultDiagnosis{Fault: f, Actual: failing.Clone(), Detected: detected}
	if !detected {
		return fd
	}
	o := env.opts
	if o.Noise.Enabled() {
		m := o.Noise.Fork(uint64(int64(f.Net)+1), uint64(int64(f.Gate)+1), uint64(int64(f.Pin)+1), uint64(f.Stuck))
		rec.begin(kNoisyVerdicts)
		v, fd.Reliability = env.eng.NoisyVerdicts(good, faulty, blocks, m, o.Retry)
		rec.end()
		rec.begin(kPrune)
		fd.Baseline = env.diag.Diagnose(v)
		fd.Result = env.diag.DiagnoseRobust(v, o.VoteThreshold)
		rec.end()
	} else {
		rec.begin(kVerdicts)
		env.eng.VerdictsInto(good, faulty, blocks, v)
		rec.end()
		rec.begin(kPrune)
		fd.Result = env.diag.DiagnoseRobust(v, o.VoteThreshold)
		rec.end()
	}
	rec.begin(kCounts)
	env.diag.CandidateCounts(v, counts)
	rec.end()
	fd.CandidatesByPartition = append([]int(nil), counts...)
	return fd
}

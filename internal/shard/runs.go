package shard

import (
	"context"
	"fmt"

	"repro/internal/chaindiag"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// This file is the coordinator's user-facing surface. Every sweep goes
// the same way: one job builder plans cost-balanced shards, c.run
// dispatches them through the pool, and the deltas are merged back into
// exactly the values the single-process sweep produces. The stuck-at
// kinds (a circuit, or one SOC core) share one merge; the chain sweep
// keeps its own outcome slots. Merging is slot-major (global index
// order), so study totals, the observe callback sequence, and the
// per-fault results are bit-identical for every shard and worker count;
// only wall-clock differs.

// buildJobs shards costs (one per work unit) and wraps each shard in a
// wire job. A stuck-at job carries its slice of faults and their
// content hash; a chain job (faults nil) carries its injection indices
// alone.
func buildJobs(kind codec.JobKind, ref codec.DeviceRef, coreIdx int32, spec codec.WireSpec, knobs codec.WireKnobs, faults []sim.Fault, costs []int, shards int) []*codec.ShardJob {
	plan := PlanShards(costs, shards)
	jobs := make([]*codec.ShardJob, len(plan))
	for j, sh := range plan {
		job := &codec.ShardJob{
			ID:      uint64(j + 1),
			Kind:    kind,
			Device:  ref,
			Core:    coreIdx,
			Spec:    spec,
			Knobs:   knobs,
			Indices: make([]uint32, len(sh.Indices)),
		}
		for k, fi := range sh.Indices {
			job.Indices[k] = uint32(fi)
		}
		if faults != nil {
			sub := make([]sim.Fault, len(sh.Indices))
			for k, fi := range sh.Indices {
				sub[k] = faults[fi]
			}
			job.FaultHash = pipeline.FaultSetHash(sub)
			job.Faults = faultsToWire(sub)
		}
		jobs[j] = job
	}
	return jobs
}

// mergeDiagnoses scatters completed shards' deltas into per-fault slots.
// Failed shards leave nil slots.
func mergeDiagnoses(faults []sim.Fault, results []*codec.ShardResult) []*core.FaultDiagnosis {
	slots := make([]*core.FaultDiagnosis, len(faults))
	for _, res := range results {
		if res == nil {
			continue
		}
		for i := range res.Diagnoses {
			d := &res.Diagnoses[i]
			slots[d.Index] = diagnosisFromWire(faults[d.Index], d)
		}
	}
	return slots
}

// runStuckAt is the one stuck-at path behind RunCircuit and RunSOCCore:
// kind and coreIdx select what the worker builds, everything else —
// wire options, shard plan, dispatch, merge — is shared.
func (c *Coordinator) runStuckAt(ctx context.Context, kind codec.JobKind, ref codec.DeviceRef, coreIdx int32, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
	spec, knobs, err := optionsToWire(o)
	if err != nil {
		return nil, err
	}
	if costs == nil {
		costs = UniformCosts(len(faults))
	}
	if len(costs) != len(faults) {
		return nil, fmt.Errorf("shard: %d costs for %d faults", len(costs), len(faults))
	}
	results, runErr := c.run(ctx, buildJobs(kind, ref, coreIdx, spec, knobs, faults, costs, c.shardCount()))
	// optionsToWire has rejected a nil scheme, so Name is safe.
	return core.MergeObserved(o, o.Scheme.Name(), mergeDiagnoses(faults, results), observe), runErr
}

// RunCircuit runs the sharded equivalent of CircuitBench.RunObserved:
// the fault list is split into cost-balanced shards, each dispatched as
// a compact descriptor (device ref + options + fault subset), and the
// deltas are merged slot-major. costs weighs each fault for the planner
// (StuckAtCosts; nil falls back to uniform). On a partial failure the
// returned study aggregates the completed shards — a sound degraded
// subset, Completeness recording the gap — alongside the error.
func (c *Coordinator) RunCircuit(ctx context.Context, ref codec.DeviceRef, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
	return c.runStuckAt(ctx, codec.JobCircuit, ref, -1, o, faults, costs, observe)
}

// RunSOCCore is RunCircuit for one core of an SOC: the worker builds
// the full SOC bench (TestRail, meta-chain) so verdicts match the
// single-process SOC sweep, not a standalone-circuit sweep.
func (c *Coordinator) RunSOCCore(ctx context.Context, ref codec.DeviceRef, coreIdx int, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
	return c.runStuckAt(ctx, codec.JobSOCCore, ref, int32(coreIdx), o, faults, costs, observe)
}

// RunChain shards the chain-diagnosis injection sweep: injections
// 0..n-1, where injection i plants ChainFault{Position: i/2, Stuck:
// i%2} — exactly chaindiag's sweep numbering. order is the scan order
// under test and must cover every cell (chaindiag.NewDevice requires
// it). The returned slice has one entry per injection; nil entries mark
// injections whose shard failed.
func (c *Coordinator) RunChain(ctx context.Context, ref codec.DeviceRef, order []int, n int) ([]*chaindiag.Outcome, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("shard: chain sweep requires an explicit scan order")
	}
	spec, knobs, err := optionsToWire(core.Options{Scheme: partition.FixedInterval{}, ScanOrder: order})
	if err != nil {
		return nil, err
	}
	results, runErr := c.run(ctx, buildJobs(codec.JobChain, ref, -1, spec, knobs, nil, UniformCosts(n), c.shardCount()))
	out := make([]*chaindiag.Outcome, n)
	for _, res := range results {
		if res == nil {
			continue
		}
		for i := range res.Chains {
			co := &res.Chains[i]
			out[co.Index] = &chaindiag.Outcome{Located: co.Located, Exact: co.Exact, Cands: int(co.Cands)}
		}
	}
	return out, runErr
}

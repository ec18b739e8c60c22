package shard

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/chaindiag"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// This file is the coordinator's user-facing surface: one method per
// sweep kind, each of which plans shards, dispatches them through the
// pool, and merges the verdict deltas back into exactly the values the
// single-process sweep produces. Merging is slot-major (global fault
// index order), so the study totals, the observe callback sequence, and
// the per-fault results are bit-identical for every shard and worker
// count; only wall-clock differs.

// buildFaultJobs shards a stuck-at fault list and wraps each shard in a
// wire job. IDs number jobs from baseID+1 so a multi-core run's jobs
// stay distinct.
func buildFaultJobs(kind codec.JobKind, ref codec.DeviceRef, coreIdx int32, spec codec.WireSpec, knobs codec.WireKnobs, faults []sim.Fault, costs []int, shards, baseID int) []*codec.ShardJob {
	plan := PlanShards(costs, shards)
	jobs := make([]*codec.ShardJob, len(plan))
	for j, sh := range plan {
		sub := make([]sim.Fault, len(sh.Indices))
		idx := make([]uint32, len(sh.Indices))
		for k, fi := range sh.Indices {
			sub[k] = faults[fi]
			idx[k] = uint32(fi)
		}
		jobs[j] = &codec.ShardJob{
			ID:        uint64(baseID + j + 1),
			Kind:      kind,
			Device:    ref,
			Core:      coreIdx,
			Spec:      spec,
			Knobs:     knobs,
			FaultHash: pipeline.FaultSetHash(sub),
			Faults:    faultsToWire(sub),
			Indices:   idx,
		}
	}
	return jobs
}

// mergeDiagnoses scatters completed shards' deltas into per-fault slots
// and accumulates the batch-plan shape across shards. Failed shards
// leave nil slots.
func mergeDiagnoses(faults []sim.Fault, results []*codec.ShardResult) (slots []*core.FaultDiagnosis, batches int, capacity float64) {
	slots = make([]*core.FaultDiagnosis, len(faults))
	for _, res := range results {
		if res == nil {
			continue
		}
		batches += int(res.PlanBatches)
		capacity += float64(res.PlanBatches) * float64(res.LaneCap)
		for i := range res.Diagnoses {
			d := &res.Diagnoses[i]
			slots[d.Index] = diagnosisFromWire(faults[d.Index], d)
		}
	}
	return slots, batches, capacity
}

// stampMerged installs the aggregated plan shape on a merged study:
// PlanBatches sums the shards' schedules, PlanFill is observed faults
// over summed lane capacity — the same fill a single plan of that shape
// would report.
func stampMerged(study *core.Study, batches int, capacity float64) {
	study.PlanBatches = batches
	if capacity > 0 {
		study.PlanFill = float64(study.Completeness.Observed) / capacity
	}
}

// schemeName names a study the way the local sweep does; optionsToWire
// has already rejected a nil scheme by the time this runs.
func schemeName(s partition.Scheme) string {
	if s == nil {
		return ""
	}
	return s.Name()
}

// RunCircuit runs the sharded equivalent of CircuitBench.RunObserved:
// the fault list is split into cost-balanced shards, each dispatched as
// a compact descriptor (device ref + options + fault subset), and the
// deltas are merged slot-major. costs weighs each fault for the planner
// (StuckAtCosts; nil falls back to uniform). On a partial failure the
// returned study aggregates the completed shards — a sound degraded
// subset, Completeness recording the gap — alongside the error.
func (c *Coordinator) RunCircuit(ctx context.Context, ref codec.DeviceRef, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
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
	jobs := buildFaultJobs(codec.JobCircuit, ref, -1, spec, knobs, faults, costs, c.shardCount(), 0)
	results, runErr := c.run(ctx, jobs)
	slots, batches, capacity := mergeDiagnoses(faults, results)
	study := core.MergeObserved(o, schemeName(o.Scheme), slots, observe)
	stampMerged(study, batches, capacity)
	return study, runErr
}

// RunSOCCore is RunCircuit for one core of an SOC: the worker builds
// the full SOC bench (TestRail, meta-chain) so verdicts match the
// single-process SOC sweep, not a standalone-circuit sweep.
func (c *Coordinator) RunSOCCore(ctx context.Context, ref codec.DeviceRef, coreIdx int, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
	studies, err := c.RunSOC(ctx, ref, o, map[int][]sim.Fault{coreIdx: faults}, map[int][]int{coreIdx: costs}, func(_ int, fd *core.FaultDiagnosis) {
		if observe != nil {
			observe(fd)
		}
	})
	if study := studies[coreIdx]; study != nil {
		return study, err
	}
	return nil, err
}

// RunSOC shards several cores' fault lists in one dispatch wave, so a
// pool of workers stays busy across core boundaries instead of draining
// at the tail of each core. coreFaults maps core index to its fault
// list; coreCosts may be nil or sparse (uniform fallback per core).
// Merging is per core, slot-major within each; observe is called core
// by core in ascending core order, matching a sequential per-core sweep.
// The returned map holds one study per requested core.
func (c *Coordinator) RunSOC(ctx context.Context, ref codec.DeviceRef, o core.Options, coreFaults map[int][]sim.Fault, coreCosts map[int][]int, observe func(coreIdx int, fd *core.FaultDiagnosis)) (map[int]*core.Study, error) {
	spec, knobs, err := optionsToWire(o)
	if err != nil {
		return nil, err
	}
	cores := make([]int, 0, len(coreFaults))
	for ci := range coreFaults {
		cores = append(cores, ci)
	}
	sort.Ints(cores)
	var jobs []*codec.ShardJob
	jobCore := make(map[uint64]int)
	for _, ci := range cores {
		faults := coreFaults[ci]
		costs := coreCosts[ci]
		if costs == nil {
			costs = UniformCosts(len(faults))
		}
		if len(costs) != len(faults) {
			return nil, fmt.Errorf("shard: core %d: %d costs for %d faults", ci, len(costs), len(faults))
		}
		coreJobs := buildFaultJobs(codec.JobSOCCore, ref, int32(ci), spec, knobs, faults, costs, c.shardCount(), len(jobs))
		for _, j := range coreJobs {
			jobCore[j.ID] = ci
		}
		jobs = append(jobs, coreJobs...)
	}
	results, runErr := c.run(ctx, jobs)

	studies := make(map[int]*core.Study, len(cores))
	for _, ci := range cores {
		faults := coreFaults[ci]
		slots := make([]*core.FaultDiagnosis, len(faults))
		batches, capacity := 0, 0.0
		for j, res := range results {
			if res == nil || jobCore[jobs[j].ID] != ci {
				continue
			}
			batches += int(res.PlanBatches)
			capacity += float64(res.PlanBatches) * float64(res.LaneCap)
			for i := range res.Diagnoses {
				d := &res.Diagnoses[i]
				slots[d.Index] = diagnosisFromWire(faults[d.Index], d)
			}
		}
		study := core.MergeObserved(o, schemeName(o.Scheme), slots, func(fd *core.FaultDiagnosis) {
			if observe != nil {
				observe(ci, fd)
			}
		})
		stampMerged(study, batches, capacity)
		studies[ci] = study
	}
	return studies, runErr
}

// TransitionOutcome is one transition fault's sharded diagnosis,
// mirroring the launch-on-capture flow the experiments package runs:
// the truly failing cells and the pruned candidate set.
type TransitionOutcome struct {
	Fault      sim.TransitionFault
	Detected   bool
	Actual     *bitset.Set
	Candidates *bitset.Set
}

// RunTransition shards a transition-fault sweep. The returned slice has
// one entry per fault; nil entries mark faults whose shard failed.
// o must describe a single-chain configuration (transition launch is
// defined on one chain); scheme/groups/partitions/patterns/lanes shape
// the BIST session exactly as in RunTransitionLocal.
func (c *Coordinator) RunTransition(ctx context.Context, ref codec.DeviceRef, o core.Options, faults []sim.TransitionFault, costs []int, observe func(*TransitionOutcome)) ([]*TransitionOutcome, error) {
	if o.Chains > 1 {
		return nil, fmt.Errorf("shard: transition sweep requires a single chain, got %d", o.Chains)
	}
	o = TransitionDefaults(o)
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
	plan := PlanShards(costs, c.shardCount())
	jobs := make([]*codec.ShardJob, len(plan))
	for j, sh := range plan {
		sub := make([]sim.TransitionFault, len(sh.Indices))
		idx := make([]uint32, len(sh.Indices))
		for k, fi := range sh.Indices {
			sub[k] = faults[fi]
			idx[k] = uint32(fi)
		}
		jobs[j] = &codec.ShardJob{
			ID:      uint64(j + 1),
			Kind:    codec.JobTransition,
			Device:  ref,
			Core:    -1,
			Spec:    spec,
			Knobs:   knobs,
			TFaults: tfaultsToWire(sub),
			Indices: idx,
		}
	}
	results, runErr := c.run(ctx, jobs)
	out := make([]*TransitionOutcome, len(faults))
	for _, res := range results {
		if res == nil {
			continue
		}
		for i := range res.Diagnoses {
			d := &res.Diagnoses[i]
			to := &TransitionOutcome{
				Fault:    faults[d.Index],
				Detected: d.Detected,
				Actual:   setFromElems(d.Actual),
			}
			if d.Detected {
				to.Candidates = setFromElems(d.Pruned)
			}
			out[d.Index] = to
		}
	}
	if observe != nil {
		for _, to := range out {
			if to != nil {
				observe(to)
			}
		}
	}
	return out, runErr
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
	o := core.Options{Scheme: partition.FixedInterval{}, ScanOrder: order}
	spec, knobs, err := optionsToWire(o)
	if err != nil {
		return nil, err
	}
	plan := PlanShards(UniformCosts(n), c.shardCount())
	jobs := make([]*codec.ShardJob, len(plan))
	for j, sh := range plan {
		idx := make([]uint32, len(sh.Indices))
		for k, fi := range sh.Indices {
			idx[k] = uint32(fi)
		}
		jobs[j] = &codec.ShardJob{
			ID:      uint64(j + 1),
			Kind:    codec.JobChain,
			Device:  ref,
			Core:    -1,
			Spec:    spec,
			Knobs:   knobs,
			Indices: idx,
		}
	}
	results, runErr := c.run(ctx, jobs)
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

// Package core orchestrates the paper's full diagnosis flow: pattern
// generation, fault simulation, multi-session signature collection under a
// partitioning scheme, candidate derivation, and the diagnostic-resolution
// (DR) metric — for a single full-scan circuit or for a core-based SOC
// tested through a TestRail. It is the layer the examples, command-line
// tools, and experiment drivers build on.
//
// The heavy lifting lives in internal/pipeline: a bench borrows an
// immutable artifact set (patterns, fault-free responses, partitions,
// syndrome tables) — deduplicated by Options.Cache when several benches
// share a content key — and drives the fault loop over a worker pool
// with per-worker reusable scratch buffers, so the steady-state
// simulation allocates nothing per fault.
package core

import (
	"context"
	"fmt"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/drc"
	"repro/internal/lfsr"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Options configures a diagnosis study.
type Options struct {
	// Scheme partitions the scan chains; required.
	Scheme partition.Scheme
	// Groups per partition (the paper's b).
	Groups int
	// Partitions to apply (each adds Groups BIST sessions).
	Partitions int
	// Patterns per BIST session.
	Patterns int
	// PRPGSeed seeds the pattern generator; zero selects 0xACE1.
	PRPGSeed uint64
	// PRPGPoly is the pattern-generator polynomial; zero selects the
	// paper's degree-16 primitive polynomial.
	PRPGPoly lfsr.Poly
	// MISRPoly is the compaction polynomial; zero selects degree 16.
	MISRPoly lfsr.Poly
	// Ideal bypasses MISR compaction (no aliasing); for ablations.
	Ideal bool
	// Chains splits the scan cells into this many balanced chains; zero
	// selects a single chain.
	Chains int
	// ScanOrder optionally overrides the natural (structural) scan order;
	// must be a permutation of the cell indices.
	ScanOrder []int
	// Workers bounds the goroutines used to diagnose faults concurrently.
	// Zero selects GOMAXPROCS; 1 forces serial execution. Results are
	// identical regardless of the worker count: each fault's diagnosis is
	// independent and aggregation preserves fault order.
	Workers int
	// Noise models an unreliable tester (intermittent fault activation,
	// verdict flips, session aborts). The zero value is a perfect tester
	// and keeps the exact deterministic code path. Each fault draws an
	// independent, reproducible noise substream derived from Noise.Seed
	// and the fault's identity, so results do not depend on diagnosis
	// order or worker count.
	Noise noise.Model
	// Retry schedules repeated executions of every session under noise;
	// completed executions vote on the tri-state verdict. Ignored for a
	// perfect tester.
	Retry bist.RetryPolicy
	// VoteThreshold K makes pruning demand corroboration: a cell is pruned
	// only when its group passed in at least K partitions (Unknown
	// verdicts never prune). 0 or 1 is the paper's hard intersection.
	VoteThreshold int
	// Cache deduplicates build artifacts (pattern blocks, fault-free
	// responses, partitions, syndrome tables) across benches that share
	// a content key. Nil builds fresh artifacts per bench. Runtime knobs —
	// Workers, Noise, Retry, VoteThreshold, and the cache itself — are not
	// part of the key, so sweeps over them reuse one artifact set.
	Cache *pipeline.ArtifactCache
	// CacheDir attaches a persistent artifact tier rooted at this
	// directory (see pipeline.ArtifactCache.AttachDir): artifacts built by
	// one process are decoded instead of rebuilt by the next — the
	// warm-start path. When set with a nil Cache, a fresh cache is created
	// to host the tier. Empty means in-memory caching only.
	CacheDir string
	// CacheBudget bounds Cache with a cost-accounted LRU budget (bytes
	// and/or entries); the zero value leaves the cache unbounded. Applied
	// at bench construction via Cache.SetBudget, so the first bench of a
	// sweep installs the limit for every later borrower. Ignored without
	// a Cache.
	CacheBudget pipeline.Budget
	// Lanes is ignored: sweeps simulate one fault at a time on the
	// event-driven engine and pack no fault batches.
	//
	// Deprecated: kept only so that code which still reads it compiles.
	Lanes int
	// StrictDRC runs the static design-rule checker (internal/drc) on the
	// netlist — and, at SOC scope, on every core and the TAM
	// configuration — before any simulation artifact is built, and fails
	// construction on the first violation. The scheme presumes a
	// well-formed scan design: one floating net or combinational loop
	// silently corrupts every signature, so strict benches refuse to
	// simulate such inputs instead of diagnosing garbage.
	StrictDRC bool
}

func (o Options) withDefaults() Options {
	if o.PRPGSeed == 0 {
		o.PRPGSeed = 0xACE1
	}
	if o.PRPGPoly == 0 {
		o.PRPGPoly = lfsr.MustPrimitivePoly(16)
	}
	if o.Chains == 0 {
		o.Chains = 1
	}
	return o
}

func (o Options) validate() error {
	if o.Scheme == nil {
		return fmt.Errorf("core: options need a partitioning scheme")
	}
	if o.Groups < 1 || o.Partitions < 1 || o.Patterns < 1 {
		return fmt.Errorf("core: groups, partitions and patterns must be positive")
	}
	if err := o.Noise.Validate(); err != nil {
		return err
	}
	if o.Retry.MaxRetries < 0 {
		return fmt.Errorf("core: retry count %d < 0", o.Retry.MaxRetries)
	}
	if o.VoteThreshold < 0 {
		return fmt.Errorf("core: vote threshold %d < 0", o.VoteThreshold)
	}
	if o.VoteThreshold > o.Partitions {
		return fmt.Errorf("core: vote threshold %d exceeds %d partitions (nothing could ever be pruned)", o.VoteThreshold, o.Partitions)
	}
	return nil
}

// attachTiers wires the cache knobs at bench construction: the budget is
// installed first (so the first bench of a sweep bounds the cache for
// every later borrower) and the disk tier is attached when CacheDir is
// set, creating a cache to host it if the caller supplied none.
func (o *Options) attachTiers() error {
	if o.CacheDir != "" && o.Cache == nil {
		o.Cache = pipeline.NewCache()
	}
	if o.CacheBudget != (pipeline.Budget{}) {
		o.Cache.SetBudget(o.CacheBudget)
	}
	if o.CacheDir != "" {
		return o.Cache.AttachDir(o.CacheDir)
	}
	return nil
}

// spec extracts the artifact content key: exactly the Options fields that
// shape build artifacts, with defaults resolved.
func (o Options) spec() pipeline.Spec {
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
		ScanOrder:  o.ScanOrder,
	}.Normalized()
}

// FaultDiagnosis is the per-fault outcome of a study.
type FaultDiagnosis struct {
	Fault sim.Fault
	// Actual holds the truly failing cells (simulation ground truth).
	Actual *bitset.Set
	// Detected reports whether any scan cell captured an error; undetected
	// faults are excluded from DR.
	Detected bool
	// Result holds candidate sets (intersection and pruned). Under a noisy
	// tester this is the robust (vote-threshold) outcome.
	Result *diagnosis.Result
	// Baseline is the hard-intersection result over the same noisy
	// verdicts — what the paper's pipeline would have concluded from this
	// unreliable run. Nil for a perfect tester, where it would equal
	// Result.
	Baseline *diagnosis.Result
	// Reliability summarises the tester noise absorbed and the retry
	// budget spent for this fault. Nil for a perfect tester.
	Reliability *bist.Reliability
	// CandidatesByPartition[k-1] is the intersection candidate count after
	// the first k partitions.
	CandidatesByPartition []int
	// Completeness records how many of the scheduled partitions the
	// verdicts reflect. A degraded run (deadline mid-session) reports
	// Observed < Scheduled, and Result then holds the sound conservative
	// superset from the observed prefix; see DiagnoseFaultContext.
	Completeness diagnosis.Completeness
}

// Missed reports whether the final (pruned) candidate set lost a truly
// failing cell — the unsoundness a robust diagnosis must avoid.
func (fd *FaultDiagnosis) Missed() bool {
	return fd.Detected && !fd.Result.Pruned.SupersetOf(fd.Actual)
}

// Study aggregates a scheme's diagnostic resolution over many faults.
type Study struct {
	SchemeName string
	Groups     int
	Partitions int
	Patterns   int

	Diagnosed  int // detected faults included in DR
	Undetected int // faults with no failing scan cell (excluded)

	// ByPartition[k-1] accumulates DR over the first k partitions, without
	// pruning.
	ByPartition []diagnosis.DR
	// Full is DR with all partitions, without pruning.
	Full diagnosis.DR
	// Pruned is DR with all partitions, with superposition pruning.
	Pruned diagnosis.DR

	// Misses counts diagnosed faults whose final candidate set lost a
	// truly failing cell (zero for a sound diagnosis).
	Misses int
	// BaselineFull and BaselineMisses mirror Full and Misses for the
	// hard-intersection baseline over the same noisy verdicts; populated
	// only when the tester model injects noise.
	BaselineFull   diagnosis.DR
	BaselineMisses int
	// Reliability aggregates tester noise and retry spend across the run's
	// diagnosed faults (all-zero for a perfect tester).
	Reliability bist.Reliability
	// Completeness records how many of the scheduled faults this study
	// aggregates. A cancelled sweep (RunContext and friends) reports the
	// contiguous fault prefix it finished; a completed sweep reports
	// Observed == Scheduled.
	Completeness diagnosis.Completeness
}

func newStudy(o Options, schemeName string) *Study {
	return &Study{
		SchemeName:  schemeName,
		Groups:      o.Groups,
		Partitions:  o.Partitions,
		Patterns:    o.Patterns,
		ByPartition: make([]diagnosis.DR, o.Partitions),
	}
}

func (s *Study) add(fd *FaultDiagnosis) {
	if !fd.Detected {
		s.Undetected++
		return
	}
	s.Diagnosed++
	actual := fd.Actual.Len()
	for k := range s.ByPartition {
		s.ByPartition[k].Add(fd.CandidatesByPartition[k], actual)
	}
	s.Full.Add(fd.Result.Candidates.Len(), actual)
	s.Pruned.Add(fd.Result.Pruned.Len(), actual)
	if fd.Missed() {
		s.Misses++
	}
	if fd.Baseline != nil {
		s.BaselineFull.Add(fd.Baseline.Candidates.Len(), actual)
		if !fd.Baseline.Pruned.SupersetOf(fd.Actual) {
			s.BaselineMisses++
		}
	}
	if fd.Reliability != nil {
		s.Reliability.Merge(fd.Reliability)
	}
}

// PartitionsToReachDR returns the smallest partition count k whose
// unpruned DR is at most the target, or -1 if no prefix reaches it — the
// paper's Figure 5 quantity.
func (s *Study) PartitionsToReachDR(target float64) int {
	for k := range s.ByPartition {
		if s.ByPartition[k].Value() <= target {
			return k + 1
		}
	}
	return -1
}

// CircuitBench couples one full-scan circuit with its build artifacts
// (patterns, fault-free responses, engine, diagnoser) for repeated fault
// studies.
type CircuitBench struct {
	Circuit *circuit.Circuit
	Opts    Options

	art *pipeline.CircuitArtifacts
	fs  *sim.FaultSim // per-bench fork of the (possibly shared) simulator
}

// NewCircuitBench prepares the BIST environment for a circuit: generates
// the pattern set, simulates the fault-free machine, builds the scan
// configuration, partitions, and syndrome tables. With Opts.Cache set,
// benches sharing a content key borrow one artifact set instead of
// rebuilding it.
func NewCircuitBench(c *circuit.Circuit, opts Options) (*CircuitBench, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.StrictDRC {
		if err := drc.Error(c.Name, drc.Check(c)); err != nil {
			return nil, err
		}
	}
	if err := opts.attachTiers(); err != nil {
		return nil, err
	}
	art, err := opts.Cache.Circuit(c, opts.spec())
	if err != nil {
		return nil, err
	}
	return &CircuitBench{Circuit: c, Opts: opts, art: art, fs: art.Sim.Fork()}, nil
}

// Engine exposes the underlying BIST engine (partitions, signatures).
func (b *CircuitBench) Engine() *bist.Engine { return b.art.Engine }

// Artifacts exposes the bench's immutable build artifacts (shared with
// other benches when Opts.Cache deduplicated the build).
func (b *CircuitBench) Artifacts() *pipeline.CircuitArtifacts { return b.art }

// GoldenSignatures computes the fault-free signature per (partition,
// verdict slot) — the tester-side storage.
func (b *CircuitBench) GoldenSignatures() [][]uint64 {
	return b.art.Engine.GoldenSignatures(b.art.Good, b.art.Blocks)
}

// Cost returns the plan's test-resource footprint.
func (b *CircuitBench) Cost() bist.Cost { return b.art.Engine.Cost() }

// Faults returns the collapsed stuck-at fault list of the circuit, built
// straight from the netlist (sim.CollapsedFaults) on every call. The bench
// keeps no copy: callers sample the list and drop it, so a memo would only
// hold the whole list live for the bench's lifetime.
func (b *CircuitBench) Faults() []sim.Fault { return sim.CollapsedFaults(b.Circuit) }

// DiagnoseFault runs the complete flow for one fault: the event-driven
// simulator and a one-off diagnosis worker. Run spreads the same steps
// over a worker pool with identical results.
func (b *CircuitBench) DiagnoseFault(f sim.Fault) *FaultDiagnosis {
	fd, _ := b.DiagnoseFaultContext(context.Background(), f)
	return fd
}

// DiagnoseMulti runs the flow for several simultaneous faults — the
// paper's multiple-fault scenario, where fault cones produce disjoint or
// overlapping failing segments (Figure 2). The FaultDiagnosis carries the
// first fault.
func (b *CircuitBench) DiagnoseMulti(faults []sim.Fault) *FaultDiagnosis {
	res := b.fs.RunMulti(faults)
	fd, _ := b.worker().diagnose(context.Background(), res.Fault, res.FailingCells, res.Detected(), res.Faulty)
	return fd
}

// worker builds a one-off diagnosis worker for the single-fault APIs.
func (b *CircuitBench) worker() *diagWorker {
	return newDiagWorker(b.Opts, b.art.Engine, b.art.Diag, b.art.Good, b.art.Blocks)
}

// diagWorker carries one worker's reusable diagnosis buffers — a pooled
// Verdicts and the candidate-count scratch — so the steady-state fault
// loop only allocates what escapes into the FaultDiagnosis.
type diagWorker struct {
	o      Options
	eng    *bist.Engine
	diag   *diagnosis.Diagnoser
	good   []*sim.Response
	blocks []*sim.Block
	v      *bist.Verdicts
	counts []int
}

func newDiagWorker(o Options, eng *bist.Engine, diag *diagnosis.Diagnoser, good []*sim.Response, blocks []*sim.Block) *diagWorker {
	return &diagWorker{
		o: o, eng: eng, diag: diag, good: good, blocks: blocks,
		v:      eng.NewVerdicts(),
		counts: make([]int, o.Partitions),
	}
}

// diagnose is the one verdicts → candidates step behind every sweep and
// single-fault API. It derives session verdicts — deterministic for a
// perfect tester, tri-state with retries and voting under noise — and
// diagnoses the prefix of partitions observed before ctx ended; a sweep
// passes context.Background() and always observes them all. actual and
// faulty may alias worker scratch; everything escaping into the
// FaultDiagnosis is copied.
func (w *diagWorker) diagnose(ctx context.Context, f sim.Fault, actual *bitset.Set, detected bool, faulty []*sim.Response) (*FaultDiagnosis, error) {
	n := w.o.Partitions
	fd := &FaultDiagnosis{Fault: f, Actual: actual.Clone(), Detected: detected,
		Completeness: diagnosis.Completeness{Observed: n, Scheduled: n}}
	if !detected {
		return fd, ctx.Err()
	}
	v, k, err := w.v, n, error(nil)
	if w.o.Noise.Enabled() {
		// The noisy flow runs every session Retry.Runs() times and votes;
		// a deadline fine enough to split it is not modelled, so it is
		// all-or-nothing on the context state at entry.
		if err = ctx.Err(); err != nil {
			k = 0
		} else {
			// Fork a per-fault substream keyed by the fault's identity so
			// the noise a fault sees is independent of diagnosis order.
			m := w.o.Noise.Fork(uint64(int64(f.Net)+1), uint64(int64(f.Gate)+1),
				uint64(int64(f.Pin)+1), uint64(f.Stuck))
			fd.Reliability = w.eng.NoisyCellVerdictsInto(actual, w.good, faulty, w.blocks, m, w.o.Retry, v)
			fd.Baseline = w.diag.Diagnose(v)
		}
	} else {
		k, err = w.eng.CellVerdictsUpTo(ctx, actual, w.good, faulty, w.blocks, v)
	}
	fd.Completeness.Observed = k
	fd.Result = w.diag.DiagnoseRobust(v.Prefix(k), w.o.VoteThreshold)
	w.diag.CandidateCounts(v, w.counts[:k])
	fd.CandidatesByPartition = append([]int(nil), w.counts[:k]...)
	return fd, err
}

// Run diagnoses every fault and aggregates the study, using
// Opts.Workers goroutines.
func (b *CircuitBench) Run(faults []sim.Fault) *Study {
	return b.RunObserved(faults, nil)
}

// RunObserved is Run with a per-fault callback, invoked in fault order
// after all diagnoses complete, for reporting and tracing. Each fault is
// simulated on a worker's fork of the event-driven engine, which
// evaluates only the nets the fault's events change, and diagnosed there
// from its failing cells; runs of
// consecutive faults are handed out over the worker pool, and idle
// workers share the faults of the runs still in flight
// (pipeline.RunLanes). Results are identical for every worker count and
// bit-for-bit identical to the single-fault path. No batch plan is built:
// a plan pays for itself only when one fault list is swept about seven
// times (DESIGN.md §7).
func (b *CircuitBench) RunObserved(faults []sim.Fault, observe func(*FaultDiagnosis)) *Study {
	study, err := b.RunObservedContext(context.Background(), faults, observe)
	if err != nil {
		// Background context never cancels, so the only failure is a
		// recovered worker panic; keep the historical crash-loudly
		// contract for the context-free API.
		panic(err)
	}
	return study
}

// SOCBench is the SOC-level counterpart: the DUT is a set of cores on a
// TestRail, the fault lives in one core, and diagnosis runs over the meta
// scan chains.
type SOCBench struct {
	SOC  *soc.SOC
	Opts Options

	art *pipeline.SOCArtifacts
	fs  *soc.FaultSim // per-bench fork of the (possibly shared) simulator
}

// NewSOCBench prepares the BIST environment over the SOC's meta chains
// (Opts.Chains selects the TAM width; 1 is the single meta chain).
func NewSOCBench(s *soc.SOC, opts Options) (*SOCBench, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.ScanOrder != nil {
		return nil, fmt.Errorf("core: custom scan order is not supported at SOC level; the TestRail fixes daisy order")
	}
	if opts.StrictDRC {
		if err := drc.Error(s.Name, drc.CheckSOC(s, opts.Chains)); err != nil {
			return nil, err
		}
	}
	if err := opts.attachTiers(); err != nil {
		return nil, err
	}
	art, err := opts.Cache.SOC(s, opts.spec())
	if err != nil {
		return nil, err
	}
	return &SOCBench{SOC: s, Opts: opts, art: art, fs: art.Sim.Fork()}, nil
}

// Engine exposes the underlying BIST engine.
func (b *SOCBench) Engine() *bist.Engine { return b.art.Engine }

// Artifacts exposes the bench's immutable build artifacts.
func (b *SOCBench) Artifacts() *pipeline.SOCArtifacts { return b.art }

// GoldenSignatures computes the fault-free signature per (partition,
// verdict slot).
func (b *SOCBench) GoldenSignatures() [][]uint64 {
	return b.art.Engine.GoldenSignatures(b.fs.Good(), b.fs.Blocks())
}

// Cost returns the plan's test-resource footprint over the TAM.
func (b *SOCBench) Cost() bist.Cost { return b.art.Engine.Cost() }

// CoreFaults returns the collapsed fault list of core i.
func (b *SOCBench) CoreFaults(i int) []sim.Fault { return b.fs.CoreFaults(i) }

// DiagnoseFault runs the flow for a fault injected into one core through
// a one-off diagnosis worker; RunCore gives identical results.
func (b *SOCBench) DiagnoseFault(core int, f sim.Fault) *FaultDiagnosis {
	fd, _ := b.DiagnoseFaultContext(context.Background(), core, f)
	return fd
}

// DiagnoseMultiCore runs the flow with one fault in each of several cores
// simultaneously — multiple spot defects, each contributing a clustered
// failing segment to the meta chain.
func (b *SOCBench) DiagnoseMultiCore(coreFaults map[int]sim.Fault) *FaultDiagnosis {
	res := b.fs.RunMulti(coreFaults)
	fd, _ := b.worker().diagnose(context.Background(), res.Fault, res.FailingCells, res.Detected(), res.Faulty)
	return fd
}

// worker builds a one-off diagnosis worker for the single-fault APIs.
func (b *SOCBench) worker() *diagWorker {
	return newDiagWorker(b.Opts, b.art.Engine, b.art.Diag, b.fs.Good(), b.fs.Blocks())
}

// RunCore diagnoses a set of faults all injected into one core (the
// paper's one-faulty-core-per-session assumption), using Opts.Workers
// goroutines. Like CircuitBench.Run, each fault runs on a worker's fork
// of the event-driven engine, restricted to the core, and is spliced
// into the global meta-chain cell space.
func (b *SOCBench) RunCore(core int, faults []sim.Fault) *Study {
	study, err := b.RunCoreContext(context.Background(), core, faults)
	if err != nil {
		// See RunObserved: only a recovered worker panic can land here.
		panic(err)
	}
	return study
}

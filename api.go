package scanbist

import (
	"io"

	"repro/internal/adaptive"
	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/drc"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/verilog"
)

// Re-exported types. The internal packages carry the implementation; these
// aliases form the supported public surface.
type (
	// Circuit is a validated gate-level netlist.
	Circuit = circuit.Circuit
	// NetID indexes a net within a Circuit.
	NetID = circuit.NetID
	// Profile describes a synthetic benchmark circuit to generate.
	Profile = benchgen.Profile
	// Fault is a single stuck-at fault.
	Fault = sim.Fault
	// Scheme generates scan-chain partitions.
	Scheme = partition.Scheme
	// Partition assigns chain positions to groups.
	Partition = partition.Partition
	// Options configures a diagnosis study.
	Options = core.Options
	// Study aggregates diagnostic resolution over many faults.
	Study = core.Study
	// FaultDiagnosis is the per-fault diagnosis outcome.
	FaultDiagnosis = core.FaultDiagnosis
	// CircuitBench couples a circuit with a BIST environment.
	CircuitBench = core.CircuitBench
	// SOCBench couples an SOC with a BIST environment over its TAM.
	SOCBench = core.SOCBench
	// SOC is a core-based system-on-chip on a TestRail.
	SOC = soc.SOC
	// SOCCore is one embedded core of an SOC.
	SOCCore = soc.Core
	// ScanConfig describes scan chains over a cell universe.
	ScanConfig = scan.Config
	// NoiseModel describes an unreliable tester: intermittent fault
	// activation, verdict flips, and session aborts, all deterministic
	// under a seed.
	NoiseModel = noise.Model
	// RetryPolicy schedules repeated session executions whose completed
	// runs vote on the tri-state verdict.
	RetryPolicy = bist.RetryPolicy
	// Reliability summarises the tester noise absorbed and the retry
	// budget spent by a diagnosis run.
	Reliability = bist.Reliability
	// Verdict is a tri-state BIST session outcome.
	Verdict = bist.Verdict
	// ArtifactCache content-addresses diagnosis build artifacts (pattern
	// blocks, fault-free responses, partitions, syndrome tables,
	// compiled batch plans) so benches and sweep points sharing a
	// configuration reuse one build. Set Options.Cache to share it across
	// NewCircuitBench/NewSOCBench calls; a nil cache is valid and builds
	// fresh every time. AttachDir (or Options.CacheDir) adds a persistent
	// second tier: a content-addressed store on disk that later processes
	// warm-start from instead of re-simulating — see cmd/artifacts for
	// inspecting one.
	ArtifactCache = pipeline.ArtifactCache
	// CacheStats is a snapshot of artifact-cache counters: memory-tier
	// hits/misses/evictions plus the disk tier's hits, misses, writes,
	// promotions, and corruptions. Its String form is the one-line
	// summary the CLIs print when -cachedir is set.
	CacheStats = pipeline.Stats
	// CacheBudget bounds an ArtifactCache with byte and/or entry limits
	// enforced by cost-accounted LRU eviction; the zero value is
	// unbounded. Set Options.CacheBudget, or call SetBudget on the cache.
	CacheBudget = pipeline.Budget
	// WorkerError is a panic recovered inside a diagnosis worker,
	// reported as a typed error (job index, lane, fault, panic value,
	// stack) instead of crashing the process.
	WorkerError = pipeline.WorkerError
	// Completeness labels a partial (deadline-degraded) result with how
	// much of the scheduled work it observed.
	Completeness = diagnosis.Completeness
)

// Tri-state session verdicts. Unknown verdicts never prune candidates.
const (
	VerdictPass    = bist.VerdictPass
	VerdictFail    = bist.VerdictFail
	VerdictUnknown = bist.VerdictUnknown
)

// TwoStep returns the paper's proposed scheme: one interval-based partition
// followed by random-selection partitions.
func TwoStep() Scheme { return partition.TwoStep{} }

// RandomSelection returns the classical Rajski–Tyszer scheme.
func RandomSelection() Scheme { return partition.RandomSelection{} }

// IntervalBased returns the pure interval-based scheme.
func IntervalBased() Scheme { return partition.Interval{} }

// FixedInterval returns the deterministic equal-block baseline.
func FixedInterval() Scheme { return partition.FixedInterval{} }

// Generate builds a synthetic benchmark circuit from a profile.
func Generate(p Profile) (*Circuit, error) { return benchgen.Generate(p) }

// MustGenerate generates a built-in profile by name (e.g. "s953"),
// panicking if the name is unknown.
func MustGenerate(name string) *Circuit { return benchgen.MustGenerate(name) }

// ProfileByName looks up a built-in benchmark profile.
func ProfileByName(name string) (Profile, bool) { return benchgen.ProfileByName(name) }

// Profiles lists the built-in benchmark profiles.
func Profiles() []Profile { return benchgen.Profiles() }

// ParseBench reads an ISCAS-89 .bench netlist.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return bench.Parse(name, r) }

// WriteBench writes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// ParseVerilog reads a netlist in the structural Verilog subset.
func ParseVerilog(r io.Reader) (*Circuit, error) { return verilog.Parse(r) }

// WriteVerilog writes a circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// FullFaultList enumerates the uncollapsed stuck-at faults of a circuit.
func FullFaultList(c *Circuit) []Fault { return sim.FullFaultList(c) }

// CollapseFaults merges structurally equivalent faults.
func CollapseFaults(c *Circuit, faults []Fault) []Fault { return sim.CollapseFaults(c, faults) }

// CollapsedFaults returns the collapsed stuck-at fault list of a circuit:
// CollapseFaults over FullFaultList, built without the uncollapsed list.
func CollapsedFaults(c *Circuit) []Fault { return sim.CollapsedFaults(c) }

// SampleFaults deterministically samples up to n faults.
func SampleFaults(faults []Fault, n int, seed int64) []Fault {
	return sim.SampleFaults(faults, n, seed)
}

// NewArtifactCache returns an empty artifact cache for Options.Cache.
func NewArtifactCache() *ArtifactCache { return pipeline.NewCache() }

// NewBoundedArtifactCache returns an artifact cache that evicts
// least-recently-used entries once the summed artifact cost exceeds the
// budget. Entries pinned by an in-flight sweep are never evicted.
func NewBoundedArtifactCache(b CacheBudget) *ArtifactCache { return pipeline.NewCacheWithBudget(b) }

// NewCircuitBench prepares a BIST diagnosis environment for a circuit.
func NewCircuitBench(c *Circuit, opts Options) (*CircuitBench, error) {
	return core.NewCircuitBench(c, opts)
}

// NewSOCBench prepares a BIST diagnosis environment over an SOC's TAM.
func NewSOCBench(s *SOC, opts Options) (*SOCBench, error) {
	return core.NewSOCBench(s, opts)
}

// NewSOC assembles an SOC from cores in daisy-chain order.
func NewSOC(name string, cores ...*SOCCore) (*SOC, error) { return soc.New(name, cores...) }

// SOC1 builds the paper's first crafted SOC (the six largest ISCAS-89
// cores on a single meta scan chain).
func SOC1() (*SOC, error) { return soc.SOC1() }

// SOC2 builds the paper's second SOC (the d695 variant with an 8-bit TAM).
func SOC2() (*SOC, error) { return soc.SOC2() }

// RandomScanOrder returns a deterministic pseudorandom scan order, the
// ablation that destroys structure/position correlation.
func RandomScanOrder(n int, seed int64) []int { return scan.RandomOrder(n, seed) }

// StructuralScanOrder derives a locality-preserving scan order from the
// netlist structure — the scan-stitching step that makes interval-based
// partitioning effective when flip-flop declaration order carries no
// placement information.
func StructuralScanOrder(c *Circuit) []int { return scan.StructuralOrder(c) }

// CellSet is a set of scan cells (candidates, failing cells, …).
type CellSet = bitset.Set

// FaultDictionary maps faults to failing-cell signatures and ranks defect
// candidates against a diagnosed cell set.
type FaultDictionary = dictionary.Dictionary

// DictionaryMatch is a ranked dictionary lookup result.
type DictionaryMatch = dictionary.Match

// BuildDictionary fault-simulates the list and builds a lookup dictionary.
// The CircuitBench convenience wrapper is usually simpler:
//
//	dict := scanbist.BuildDictionary(sim.NewFaultSim(c, blocks), faults)
func BuildDictionary(fs *sim.FaultSim, faults []Fault) *FaultDictionary {
	return dictionary.Build(fs, faults)
}

// TestGenerator runs PODEM deterministic test generation.
type TestGenerator = atpg.Generator

// NewTestGenerator builds a PODEM generator for a circuit.
func NewTestGenerator(c *Circuit) *TestGenerator { return atpg.New(c) }

// AdaptiveOracle answers masked-session pass/fail queries for adaptive
// (binary-search) diagnosis.
type AdaptiveOracle = adaptive.Oracle

// AdaptiveDiagnose runs the binary-search baseline of Ghosh-Dastidar &
// Touba over an n-cell chain.
func AdaptiveDiagnose(o AdaptiveOracle, n int) *CellSet { return adaptive.Diagnose(o, n) }

// DRCViolation is one static design-rule hit reported by the netlist/scan
// design-rule checker: a structural defect (floating net, combinational
// loop, unscanned flip-flop, X-source reaching the MISR, ...) that would
// silently corrupt signatures if simulated. Set Options.StrictDRC to make
// bench construction fail on any violation.
type DRCViolation = drc.Violation

// CheckDRC statically verifies a netlist against the design rules the
// diagnosis flow presumes and returns all violations (empty for a clean
// circuit). It accepts unvalidated circuits, so malformed netlists report
// the precise rule they break.
func CheckDRC(c *Circuit) []DRCViolation { return drc.Check(c) }

// CheckSOCDRC verifies every core of an SOC plus its meta-chain TAM
// configurations: the single meta chain always, and one configuration per
// entry of widths (e.g. 8 for the paper's 8-bit TAM).
func CheckSOCDRC(s *SOC, widths ...int) []DRCViolation { return drc.CheckSOC(s, widths...) }

package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/lfsr"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
)

// simArtifacts is the simulation layer of a circuit build: pattern blocks,
// the fault-free machine, and its responses. It is independent of scan
// configuration and partitioning, so every scheme swept over one circuit
// shares it. The FaultSim inside carries the event-driven engine's shared
// read-only state — per-block fault-free internal net values — so those
// are also built once per cache entry and amortized across every
// borrowing bench and worker fork.
type simArtifacts struct {
	blocks []*sim.Block
	fs     *sim.FaultSim
	good   []*sim.Response
}

// CircuitArtifacts is the immutable build product of one (circuit, spec)
// pair: everything a diagnosis run needs that does not depend on the
// fault. Treat every field as read-only; concurrent fault loops must Fork
// the FaultSim for per-goroutine scratch (forks share the cached
// fault-free values, and each gets its own event worklist).
type CircuitArtifacts struct {
	Circuit *circuit.Circuit
	Spec    Spec // normalized
	Blocks  []*sim.Block
	Sim     *sim.FaultSim
	Good    []*sim.Response
	Engine  *bist.Engine
	Diag    *diagnosis.Diagnoser

	// cacheKey/simCacheKey record the content keys this artifact set was
	// cached under (empty when built without a cache); they let Pin find
	// the entries without re-deriving the fingerprint.
	cacheKey    string
	simCacheKey string
}

// SOCArtifacts is the SOC-level counterpart: the SOC-scope fault simulator
// over per-core pattern blocks, plus engine and diagnoser over the meta
// scan chains.
type SOCArtifacts struct {
	SOC    *soc.SOC
	Spec   Spec // normalized
	Sim    *soc.FaultSim
	Engine *bist.Engine
	Diag   *diagnosis.Diagnoser

	// cacheKey/simCacheKey mirror CircuitArtifacts: the content keys Pin
	// uses to find the cached entries (empty when built uncached).
	cacheKey    string
	simCacheKey string
	// workers pools per-worker sweep state; see Workers.
	workers sync.Pool
}

// Workers returns the pool of per-worker state of the fault sweeps over
// these artifacts: a sweep worker takes its simulator fork, scratch and
// diagnosis buffers from it and puts them back when the sweep ends, so
// the many small core sweeps of an SOC diagnosis, and every later one
// over the same artifacts, reuse a few states instead of building them
// per sweep. What is pooled is up to the sweep; the pool only holds it.
func (a *SOCArtifacts) Workers() *sync.Pool { return &a.workers }

func (s Spec) plan() bist.Plan {
	return bist.Plan{
		Scheme:     s.Scheme,
		Groups:     s.Groups,
		Partitions: s.Partitions,
		MISRPoly:   s.MISRPoly,
		Ideal:      s.Ideal,
	}
}

func (s Spec) scanConfig(numCells int) (scan.Config, error) {
	order := s.ScanOrder
	if order == nil {
		order = scan.NaturalOrder(numCells)
	}
	if len(order) != numCells {
		return scan.Config{}, fmt.Errorf("pipeline: scan order covers %d of %d cells", len(order), numCells)
	}
	if s.Chains == 1 {
		return scan.SingleChainOrdered(order), nil
	}
	return scan.SplitContiguous(order, s.Chains)
}

func buildSim(c *circuit.Circuit, s Spec) (*simArtifacts, error) {
	if s.Patterns < 1 {
		return nil, fmt.Errorf("pipeline: pattern count %d < 1", s.Patterns)
	}
	prpg, err := lfsr.New(s.PRPGPoly, s.PRPGSeed)
	if err != nil {
		return nil, err
	}
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), s.Patterns)
	sa := &simArtifacts{blocks: blocks, fs: sim.NewFaultSim(c, blocks)}
	for i := range blocks {
		sa.good = append(sa.good, sa.fs.Good(i))
	}
	return sa, nil
}

// engineParts is the half of a build that needs nothing from the
// simulation layer: the BIST engine over the scan configuration (interval
// seeds, partitions, syndrome table) and its diagnoser.
type engineParts struct {
	eng  *bist.Engine
	diag *diagnosis.Diagnoser
}

func newEngineParts(cfg scan.Config, s Spec) (engineParts, error) {
	eng, err := bist.NewEngine(cfg, s.plan(), s.Patterns)
	if err != nil {
		return engineParts{}, err
	}
	diag, err := diagnosis.FromEngine(eng)
	if err != nil {
		return engineParts{}, err
	}
	return engineParts{eng: eng, diag: diag}, nil
}

// setUp resolves the two independent halves of a build: the simulation
// layer (sim) runs on the caller's goroutine while the engine (engine)
// runs on a helper, so the set-up costs the longer of the two rather
// than their sum. What the caller sees is what the sequential build
// (sim, then engine only if sim succeeded) would show: a sim error wins
// over anything the engine did, a panic in engine is re-raised on the
// caller's goroutine, and otherwise the engine error is returned.
func setUp[S any](sim func() (S, error), engine func() (engineParts, error)) (S, engineParts, error) {
	var (
		ev       engineParts
		engErr   error
		panicked any
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		ev, engErr = engine()
	}()
	defer func() { <-done }() // joins the helper when sim panics
	sv, simErr := sim()
	<-done
	if simErr != nil {
		return sv, ev, simErr
	}
	if panicked != nil {
		panic(panicked)
	}
	return sv, ev, engErr
}

func circuitEngine(c *circuit.Circuit, s Spec) (engineParts, error) {
	cfg, err := s.scanConfig(c.NumDFFs())
	if err != nil {
		return engineParts{}, err
	}
	return newEngineParts(cfg, s)
}

// buildCircuit assembles the artifacts from the two halves setUp resolved.
func buildCircuit(c *circuit.Circuit, s Spec, sa *simArtifacts, ep engineParts) *CircuitArtifacts {
	return &CircuitArtifacts{
		Circuit: c,
		Spec:    s,
		Blocks:  sa.blocks,
		Sim:     sa.fs,
		Good:    sa.good,
		Engine:  ep.eng,
		Diag:    ep.diag,
	}
}

// socSimArtifacts is the SOC simulation layer: per-core patterns expanded
// from the shared PRPG and the fault-free responses of every core.
type socSimArtifacts struct {
	fs *soc.FaultSim
}

func buildSOCSim(s *soc.SOC, spec Spec) (*socSimArtifacts, error) {
	if spec.Patterns < 1 {
		return nil, fmt.Errorf("pipeline: pattern count %d < 1", spec.Patterns)
	}
	prpg, err := lfsr.New(spec.PRPGPoly, spec.PRPGSeed)
	if err != nil {
		return nil, err
	}
	fs, err := soc.NewFaultSim(s, s.GeneratePatterns(prpg, spec.Patterns))
	if err != nil {
		return nil, err
	}
	return &socSimArtifacts{fs: fs}, nil
}

func socEngine(s *soc.SOC, spec Spec) (engineParts, error) {
	if spec.ScanOrder != nil {
		return engineParts{}, fmt.Errorf("pipeline: custom scan order is not supported at SOC level; the TestRail fixes daisy order")
	}
	var cfg scan.Config
	if spec.Chains == 1 {
		cfg = s.SingleMetaChain()
	} else {
		var err error
		cfg, err = s.MetaChains(spec.Chains)
		if err != nil {
			return engineParts{}, err
		}
	}
	return newEngineParts(cfg, spec)
}

func buildSOC(s *soc.SOC, spec Spec, sa *socSimArtifacts, ep engineParts) *SOCArtifacts {
	return &SOCArtifacts{
		SOC:    s,
		Spec:   spec,
		Sim:    sa.fs,
		Engine: ep.eng,
		Diag:   ep.diag,
	}
}

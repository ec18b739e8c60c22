package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// workers is both core.Options.Workers and GOMAXPROCS for every workload.
const workers = 2

type kind int

const (
	kindCold kind = iota
	kindDisk
	kindNoisySOC
)

// config sizes a workload; the tests shrink it.
type config struct {
	circuit string // benchgen profile (circuit workloads)
	soc     string // SOC preset (SOC workload)
	groups  int
	faults  int // sampled faults per sweep (per core at SOC scope)
	samples int // distinct fault samples the operations cycle through
}

type workloadDef struct {
	name string
	kind kind
	cfg  config
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen. Every one runs two-step partitioning with 8 partitions of
// 128 patterns, as in the paper's tables.
var workloads = []workloadDef{
	{"cold_scandiag", kindCold, config{circuit: "s13207", groups: 16, faults: 500, samples: 4}},
	{"disk_warm_start", kindDisk, config{circuit: "s13207", groups: 16, faults: 500, samples: 4}},
	{"noisy_soc", kindNoisySOC, config{soc: "soc1", groups: 32, faults: 30, samples: 4}},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// workload is one workload's state. The harness calls setup (several
// times; the last state is kept), then prepare before and run or trace for
// each operation. Operations name the fault sample they diagnose.
type workload interface {
	// initReference builds the reference bench state, separate from the
	// state the timed operations use.
	initReference() error
	// reference returns the per-fault reference studies of sample k, one
	// per sweep. Safe for concurrent use.
	reference(k int) ([]summary, error)
	// setup builds everything the timed operations need, including the
	// untimed warm-up. With traced set it also prepares the traced path.
	setup(ctx context.Context, traced bool) error
	// prepare readies the next operation outside the timed window.
	prepare() error
	// run performs one operation on sample k through the core API. keep
	// holds the operation's bench, cache and studies for the live-heap
	// reading.
	run(ctx context.Context, k int) (studies []*core.Study, keep any, err error)
	// trace performs the same operation with its layer calls made here,
	// each inside a span.
	trace(ctx context.Context, k int, rec *recorder, cnt *counts) ([]summary, error)
}

// noiseSeed is the tester-noise seed, the CLIs' default. It is fixed so
// that every run's noise, like its fault pool, is the same work.
const noiseSeed = 7

func baseOptions(def workloadDef) core.Options {
	o := core.Options{
		Scheme:     partition.TwoStep{},
		Groups:     def.cfg.groups,
		Partitions: 8,
		Patterns:   128,
		Workers:    workers,
	}
	if def.kind == kindNoisySOC {
		o.Noise = noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: noiseSeed}
		o.Retry = bist.RetryPolicy{MaxRetries: 4}
		o.VoteThreshold = 2
	}
	return o
}

// poolSeed fixes each workload's fault samples. The workload seed decides
// only the order in which operations visit them: the work a sample costs
// depends on how its faults group into batches (noisy_soc allocates up to
// 7% more or less per fault with another grouping), so a seed that
// regrouped the pool would move the metrics with the seed, not the code.
const poolSeed = 0x5eed

// sampler cuts the pool into the workload's samples.
type sampler struct {
	n, k int // faults per sample, samples
}

// sample returns sample i of the pool drawn from faults: the pool is
// k×n faults chosen with poolSeed (salted per SOC core), cut into k
// samples that keep the list order.
func (s sampler) sample(faults []sim.Fault, i int, salt int64) []sim.Fault {
	pool := rand.New(rand.NewSource(poolSeed + salt)).Perm(len(faults))
	if len(pool) > s.n*s.k {
		pool = pool[:s.n*s.k]
	}
	pos := pool[i*len(pool)/s.k : (i+1)*len(pool)/s.k]
	sort.Ints(pos)
	out := make([]sim.Fault, len(pos))
	for j, p := range pos {
		out[j] = faults[p]
	}
	return out
}

func newWorkload(def workloadDef, dir string) (workload, error) {
	opts := baseOptions(def)
	smp := sampler{n: def.cfg.faults, k: def.cfg.samples}
	if def.kind == kindNoisySOC {
		return &noisySOC{preset: def.cfg.soc, opts: opts, smp: smp}, nil
	}
	prof, ok := benchgen.ProfileByName(def.cfg.circuit)
	if !ok {
		return nil, fmt.Errorf("unknown circuit profile %q", def.cfg.circuit)
	}
	return &coldCircuit{prof: prof, opts: opts, smp: smp, disk: def.kind == kindDisk, dir: dir}, nil
}

// coldCircuit is cold_scandiag and disk_warm_start: each operation is a
// scandiag invocation in a fresh process — a newly generated circuit, a
// fresh cache over a store directory, the fault list, a sample and the
// sweep. Cold operations get an empty store directory; disk operations
// share one that setup populated with every artifact they ask for.
type coldCircuit struct {
	prof benchgen.Profile
	opts core.Options
	smp  sampler
	disk bool
	dir  string

	ref   *circuit.Circuit
	refC  *pipeline.ArtifactCache
	n     int    // store directories created so far
	store string // the store directory of the next operation
}

// initReference generates the reference circuit; reference benches share
// its artifacts through refC.
func (w *coldCircuit) initReference() error {
	c, err := benchgen.Generate(w.prof)
	w.ref, w.refC = c, pipeline.NewCache()
	return err
}

// reference diagnoses sample k fault by fault. Each call forks its own
// simulator, so calls may run concurrently.
func (w *coldCircuit) reference(k int) ([]summary, error) {
	o := w.opts
	o.Cache = w.refC
	b, err := core.NewCircuitBench(w.ref, o)
	if err != nil {
		return nil, err
	}
	sample := w.smp.sample(b.Faults(), k, 0)
	fds := make([]*core.FaultDiagnosis, len(sample))
	for i, f := range sample {
		fds[i] = b.DiagnoseFault(f)
	}
	return []summary{tally(o.Partitions, fds)}, nil
}

func (w *coldCircuit) freshDir() string {
	w.n++
	return filepath.Join(w.dir, fmt.Sprintf("store-%d", w.n))
}

func (w *coldCircuit) setup(ctx context.Context, traced bool) error {
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	if !w.disk {
		// Warm-up: one cold operation, as the timed ones will run it.
		if err := w.prepare(); err != nil {
			return err
		}
		_, _, err := w.run(ctx, 0)
		return err
	}
	// Populate one store with every artifact the operation sequence asks
	// for: one cold operation per sample writes the sim layer, the cones
	// (growing with each sample) and the sample's plan.
	shared := w.freshDir()
	for k := 0; k < w.smp.k; k++ {
		if _, _, err := w.runIn(ctx, shared, k); err != nil {
			return err
		}
		if traced {
			if _, err := w.traceIn(ctx, shared, k, newRecorder(), &counts{}); err != nil {
				return err
			}
		}
	}
	w.store = shared
	_, _, err := w.run(ctx, 0)
	return err
}

func (w *coldCircuit) prepare() error {
	if !w.disk {
		if w.store != "" {
			if err := os.RemoveAll(w.store); err != nil {
				return err
			}
		}
		w.store = w.freshDir()
	}
	// A new process starts from an empty heap.
	runtime.GC()
	return nil
}

func (w *coldCircuit) run(ctx context.Context, k int) ([]*core.Study, any, error) {
	return w.runIn(ctx, w.store, k)
}

func (w *coldCircuit) runIn(ctx context.Context, dir string, k int) ([]*core.Study, any, error) {
	c, err := benchgen.Generate(w.prof)
	if err != nil {
		return nil, nil, err
	}
	o := w.opts
	o.CacheDir = dir
	b, err := core.NewCircuitBench(c, o)
	if err != nil {
		return nil, nil, err
	}
	sample := w.smp.sample(b.Faults(), k, 0)
	st, err := b.RunContext(ctx, sample)
	return []*core.Study{st}, b, err
}

func (w *coldCircuit) trace(ctx context.Context, k int, rec *recorder, cnt *counts) ([]summary, error) {
	return w.traceIn(ctx, w.store, k, rec, cnt)
}

// noisySOC is noisy_soc: SOC1 on its single meta chain behind an
// unreliable tester, artifacts warm. Each operation looks the SOC bench
// up and sweeps one fault sample in every core.
type noisySOC struct {
	preset string
	opts   core.Options
	smp    sampler

	ref     *soc.SOC
	refC    *pipeline.ArtifactCache
	s       *soc.SOC
	art     *pipeline.SOCArtifacts
	samples [][][]sim.Fault // [sample][core]
}

func (w *noisySOC) prepare() error { return nil }

func (w *noisySOC) reference(k int) ([]summary, error) {
	o := w.opts
	o.Cache = w.refC
	b, err := core.NewSOCBench(w.ref, o)
	if err != nil {
		return nil, err
	}
	out := make([]summary, w.ref.NumCores())
	for i := range out {
		sample := w.smp.sample(b.CoreFaults(i), k, int64(i))
		fds := make([]*core.FaultDiagnosis, len(sample))
		for j, f := range sample {
			fds[j] = b.DiagnoseFault(i, f)
		}
		out[i] = tally(w.opts.Partitions, fds)
	}
	return out, nil
}

func (w *noisySOC) initReference() error {
	s, err := soc.Preset(w.preset)
	w.ref, w.refC = s, pipeline.NewCache()
	return err
}

func (w *noisySOC) setup(ctx context.Context, traced bool) error {
	s, err := soc.Preset(w.preset)
	if err != nil {
		return err
	}
	w.opts.Cache = pipeline.NewCache()
	b, err := core.NewSOCBench(s, w.opts)
	if err != nil {
		return err
	}
	w.s, w.art, w.samples = s, b.Artifacts(), make([][][]sim.Fault, w.smp.k)
	for k := range w.samples {
		w.samples[k] = make([][]sim.Fault, s.NumCores())
		for i := range w.samples[k] {
			w.samples[k][i] = w.smp.sample(b.CoreFaults(i), k, int64(i))
		}
	}
	for k := range w.samples {
		if _, _, err := w.run(ctx, k); err != nil {
			return err
		}
	}
	return nil
}

func (w *noisySOC) run(ctx context.Context, k int) ([]*core.Study, any, error) {
	b, err := core.NewSOCBench(w.s, w.opts)
	if err != nil {
		return nil, nil, err
	}
	studies := make([]*core.Study, len(w.samples[k]))
	for i, sample := range w.samples[k] {
		if studies[i], err = b.RunCoreContext(ctx, i, sample); err != nil {
			return nil, nil, err
		}
	}
	return studies, b, nil
}

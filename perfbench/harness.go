package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// minOps is the fewest timed operations a run makes, however short its
// window.
const minOps = 3

type runConfig struct {
	def      workloadDef
	seed     int64
	seconds  float64
	traced   bool
	dir      string // per-run scratch directory, removed at the end
	traceDir string // where the traced run writes its spans
}

type result struct {
	report report
	lines  []string
}

// sequence yields the operations' sample indices: every cycle visits
// each sample once, in an order drawn from the workload seed.
type sequence struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (s *sequence) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	k := s.perm[0]
	s.perm = s.perm[1:]
	return k
}

// checker counts attempted and failed operations and keeps the first
// studies seen per sample for the digest.
type checker struct {
	refs      [][]summary
	first     [][]summary
	attempted int
	failed    int
}

func (c *checker) check(k int, got []summary, err error) bool {
	c.attempted++
	ok := err == nil && matches(got, c.refs[k])
	if err == nil && c.first[k] == nil {
		c.first[k] = got
	}
	if !ok {
		c.failed++
		if c.failed == 1 {
			if err == nil {
				err = fmt.Errorf("studies differ from the reference")
			}
			fmt.Fprintf(os.Stderr, "perfbench: operation on sample %d failed: %v\n", k, err)
		}
	}
	return ok
}

func summaries(studies []*core.Study, err error) ([]summary, error) {
	if err != nil {
		return nil, err
	}
	out := make([]summary, len(studies))
	for i, st := range studies {
		if out[i], err = fromStudy(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// references computes the reference studies of every sample on two
// goroutines. It is untimed and not part of setup.
func references(w workload, n int) ([][]summary, error) {
	refs := make([][]summary, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < n; k += workers {
				refs[k], errs[k] = w.reference(k)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	return refs, nil
}

// execute runs one workload: the reference, the set-ups, and the timed or
// traced loop. w keeps any store directories under rc.dir.
func execute(rc runConfig, w workload) (*result, error) {
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(rc.dir, 0o777); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	samples := rc.def.cfg.samples
	res := &result{}
	say := func(format string, args ...any) { res.lines = append(res.lines, fmt.Sprintf(format, args...)) }
	say("workload:  %s, seed %d, %g s window, traced=%t", rc.def.name, rc.seed, rc.seconds, rc.traced)
	say("runtime:   GOMAXPROCS=%d, Options.Workers=%d, %d CPUs visible", runtime.GOMAXPROCS(0), workers, runtime.NumCPU())

	t := time.Now()
	if err := w.initReference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refs, err := references(w, samples)
	if err != nil {
		return nil, err
	}
	say("reference: %d samples through DiagnoseFault in %.2f s (untimed, outside setup_s)", samples, time.Since(t).Seconds())

	// Set up several times and keep the last state, so setup_s is a
	// median and not one cold reading.
	setups := 3
	if rc.traced {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t := time.Now()
		if err := w.setup(ctx, rc.traced); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	if rc.def.kind == kindCold || rc.def.kind == kindDisk {
		say("store:     %s filesystem under %s", fsType(rc.dir), rc.dir)
	}
	runtime.GC()

	chk := &checker{refs: refs, first: make([][]summary, samples)}
	seq := &sequence{rng: rand.New(rand.NewSource(rc.seed)), n: samples}
	if rc.traced {
		err = tracedLoop(ctx, rc, w, seq, chk, say, res)
	} else {
		err = timedLoop(ctx, rc, w, seq, chk, setupS, say, res)
	}
	if err != nil {
		return nil, err
	}
	seen := 0
	for _, s := range chk.first {
		if s != nil {
			seen++
		}
	}
	say("studies:   digest %s over %d of %d samples", digest(chk.first), seen, samples)
	say("failures:  op_failure_ratio %d/%d = %g", chk.failed, chk.attempted, float64(chk.failed)/float64(chk.attempted))
	res.report.Correct = chk.failed == 0
	res.report.Attempted = chk.attempted
	res.report.Failed = chk.failed
	return res, nil
}

// timedLoop runs untraced operations for the window and reports the
// end-to-end metrics.
func timedLoop(ctx context.Context, rc runConfig, w workload, seq *sequence, chk *checker, setupS []float64, say func(string, ...any), res *result) error {
	var lat []float64
	var faults int
	var allocs uint64
	var keep []any
	op := func() error {
		keep = nil
		if err := w.prepare(); err != nil {
			return err
		}
		k := seq.next()
		a0 := readUint(mAllocBytes)
		t := time.Now()
		studies, kp, err := w.run(ctx, k)
		d := time.Since(t)
		a1 := readUint(mAllocBytes)
		keep = []any{kp, studies}
		got, err := summaries(studies, err)
		chk.check(k, got, err)
		lat = append(lat, float64(d)/1e6)
		faults += numFaults(got)
		allocs += a1 - a0
		return nil
	}
	start := time.Now()
	for n := 0; more(rc, seq, n, start); n++ {
		if err := op(); err != nil {
			return err
		}
	}
	timed, timedFaults, timedAllocs := append([]float64(nil), lat...), faults, allocs
	if timedFaults == 0 {
		return fmt.Errorf("no timed operation completed a study")
	}

	// Live heap: a forced GC after an operation, outside the timed window,
	// with that operation's bench, cache and studies still referenced.
	var heap []float64
	for i := 0; i < 3; i++ {
		if i > 0 {
			if err := op(); err != nil {
				return err
			}
		}
		runtime.GC()
		heap = append(heap, float64(readUint(mLiveBytes))/(1<<20))
		runtime.KeepAlive(keep)
	}

	total := 0.0
	for _, v := range timed {
		total += v
	}
	tail, pct := tailLatency(timed)
	say("setup:     %v s (median reported)", roundAll(setupS))
	say("timed:     %d operations, %d faults, tail = p%.1f of %d samples (%d beyond it)", len(timed), timedFaults, pct, len(timed), tailBeyond)
	res.report.Metrics = map[string]metricValue{}
	set := func(name string, v float64) { res.report.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
	set("faults_per_s", float64(timedFaults)/(total/1e3))
	set("latency_p50_ms", median(timed))
	set("latency_tail_ms", tail)
	set("setup_s", median(setupS))
	set("live_heap_mb", median(heap))
	set("alloc_bytes_per_fault", float64(timedAllocs)/float64(timedFaults))
	return nil
}

// tracedLoop alternates each untraced operation with its traced
// re-enactment on the same sample and reports the per-layer metrics.
func tracedLoop(ctx context.Context, rc runConfig, w workload, seq *sequence, chk *checker, say func(string, ...any), res *result) error {
	rec, cnt := newRecorder(), &counts{}
	var untracedMs, tracedMs, gcCPU float64
	trusted, ops := true, 0
	start := time.Now()
	for n := 0; more(rc, seq, n, start); n++ {
		k := seq.next()
		if err := w.prepare(); err != nil {
			return err
		}
		t := time.Now()
		studies, _, err := w.run(ctx, k)
		untracedMs += float64(time.Since(t)) / 1e6
		got, err := summaries(studies, err)
		chk.check(k, got, err)

		if err := w.prepare(); err != nil {
			return err
		}
		rec.op = int32(n)
		g0 := readFloat(mGCCPU)
		t = time.Now()
		traced, err := w.trace(ctx, k, rec, cnt)
		tracedMs += float64(time.Since(t)) / 1e6
		gcCPU += readFloat(mGCCPU) - g0
		if !chk.check(k, traced, err) || !matches(traced, got) {
			trusted = false
		}
		ops++
	}
	var bd breakdown
	bd.add(rec.spans)
	path := filepath.Join(rc.traceDir, fmt.Sprintf("trace-%s-seed%d.tsv", rc.def.name, rc.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	say("trace:     %d spans over %d traced operations written to %s; trusted=%t", len(rec.spans), ops, path, trusted)

	per := func(v float64) float64 { return v / float64(ops) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals := map[string]float64{
		"sim.plan_batches":             per(float64(cnt.planBatches)),
		"sim.plan_fill":                ratio(float64(cnt.planFaults), cnt.planSlots),
		"pipeline.store_bytes_written": per(float64(cnt.bytesWritten)),
		"pipeline.disk_writes":         per(float64(cnt.diskWrites)),
		"pipeline.store_bytes_read":    per(float64(cnt.bytesRead)),
		"pipeline.disk_hits":           per(float64(cnt.diskHits)),
		"pipeline.disk_misses":         per(float64(cnt.diskMisses)),
		"pipeline.mem_hit_ratio":       ratio(float64(cnt.memHits), float64(cnt.memLookups)),
		"pipeline.plan_hit_ratio":      ratio(float64(cnt.planHits), float64(cnt.planLookups)),
		"bist.session_runs_per_fault":  ratio(float64(cnt.executions), float64(cnt.diagnosed)),
		"pipeline.executor_idle_ms":    per(bd.idle(workers)),
		"core.study_ms":                per(bd.study),
		"runtime.gc_cpu_ms":            per(gcCPU * 1e3),
		"trace.op_wall_ms":             per(bd.opWall),
		"trace.unattributed_ratio":     bd.unattributed(workers),
		"trace.overhead_ratio":         ratio(tracedMs, untracedMs),
	}
	for k := kGenerate; k < numKinds; k++ {
		if k != kSweep && k != kJob {
			vals[kindNames[k]+"_ms"] = bd.perOp(k)
		}
	}
	mainSide, worker := bd.study, 0.0
	for k := kGenerate; k < numKinds; k++ {
		if k.workerSide() {
			worker += bd.self[k]
		} else {
			mainSide += bd.self[k]
		}
	}
	say("layers:    ms per traced operation (worker-side layers are busy time summed over %d workers)", workers)
	res.report.Metrics = map[string]metricValue{}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s has no value", m.name)
		}
		res.report.Metrics[m.name] = metricValue{v, m.unit}
		say("  %-30s %14.4f %s", m.name, v, m.unit)
	}
	say("accounting: op wall %.3f ms = main-side %.3f + (worker-side %.3f + idle %.3f) / %d + unattributed %.3f (%.2f%%)",
		per(bd.opWall), per(mainSide), per(worker), per(bd.idle(workers)), workers,
		per(bd.jobSelf)/workers, 100*bd.unattributed(workers))
	if !trusted {
		return fmt.Errorf("traced studies differ from the untraced ones; the breakdown is not trusted")
	}
	return nil
}

// more reports whether the loop makes another operation: until the window
// has passed and the last cycle over the samples is complete, so every
// sample weighs the same in the run.
func more(rc runConfig, seq *sequence, n int, start time.Time) bool {
	return n < minOps || time.Since(start).Seconds() < rc.seconds || n%seq.n != 0
}

// numFaults counts the faults an operation's studies cover.
func numFaults(studies []summary) int {
	n := 0
	for _, s := range studies {
		n += s.Diagnosed + s.Undetected
	}
	return n
}

// tailBeyond is the number of samples the tail percentile leaves above it.
const tailBeyond = 10

// tailLatency returns the highest nearest-rank percentile with at least
// tailBeyond samples beyond it, and which percentile that is. With too
// few samples it falls back to the maximum.
func tailLatency(v []float64) (value, pct float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func roundAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mLiveBytes  = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func readUint(name string) uint64   { return readMetric(name).Uint64() }
func readFloat(name string) float64 { return readMetric(name).Float64() }

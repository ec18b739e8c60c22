package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// TestSOCSweepPoolReuse: the core sweeps of SOC benches over one artifact
// set take their workers' state from the set's pool and put it back, so
// one state serves sweeps over other cores, with tester noise on and off;
// every sweep still matches the full-pass oracle fault for fault. A state
// whose lane panicked is dropped, not reused, and a warm sweep allocates a
// small share of what a sweep that builds its states does.
func TestSOCSweepPoolReuse(t *testing.T) {
	presets := []string{"socmini"}
	if !testing.Short() {
		presets = append(presets, "soc1")
	}
	for _, name := range presets {
		t.Run(name, func(t *testing.T) {
			s, err := soc.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			cache := pipeline.NewCache()
			bench := func(noisy bool, workers int) *SOCBench {
				t.Helper()
				o := baseOpts(partition.TwoStep{})
				if noisy {
					o = equivNoisyOpts(partition.TwoStep{})
				}
				o.Workers, o.Cache = workers, cache
				b, err := NewSOCBench(s, o)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			sweeps := 0
			check := func(b *SOCBench, core int) {
				t.Helper()
				sweeps++
				faults := singleJobSample(t, sim.SampleFaults(b.CoreFaults(core), 24, int64(core)+3))
				var got []*FaultDiagnosis
				if _, err := b.RunCoreObservedContext(newCountdown(1<<30), core, faults, func(fd *FaultDiagnosis) { got = append(got, fd) }); err != nil {
					t.Fatalf("sweep %d (core %d): %v", sweeps, core, err)
				}
				if len(got) != len(faults) {
					t.Fatalf("sweep %d (core %d): observed %d of %d faults", sweeps, core, len(got), len(faults))
				}
				for i, f := range faults {
					requireSameDiagnosis(t, fmt.Sprintf("sweep %d (core %d, noisy=%t) fault %d", sweeps, core, b.Opts.Noise.Enabled(), i),
						got[i], referenceSOCDiagnosis(b, core, f))
				}
			}
			for i, core := range []int{0, 1, 2, 1, 0} {
				check(bench(i%2 == 1, 2), core)
			}

			// A helper lane panics after leaving its worker's diagnosis
			// buffers inconsistent, as a lane that dies mid-fault may; the
			// sweep fails, and the sweeps after it must not reuse that state.
			b := bench(true, 2)
			faults := singleJobSample(t, sim.SampleFaults(b.CoreFaults(1), 24, 5))
			gate := newHelperGate()
			var target atomic.Pointer[sim.Fault]
			gate.onHelper = func(f sim.Fault) { target.CompareAndSwap(nil, &f) }
			sw := b.sweep(1)
			sw.fork = gate.wrap(poisonOn(sw.fork, func(f sim.Fault) bool {
				p := target.Load()
				return p != nil && *p == f
			}))
			var we *pipeline.WorkerError
			if _, err := sw.run(newCountdown(1<<30), faults, nil); !errors.As(err, &we) || we.Value != "planted mid-fault panic" {
				t.Fatalf("planted panic: err = %v, want a *WorkerError carrying it", err)
			}
			for i, core := range []int{1, 2, 0, 1} {
				check(bench(i%2 == 0, 2), core)
			}

			if raceEnabled {
				t.Skip("sync.Pool drops puts at random under -race")
			}
			// A fresh artifact set starts with an empty pool: its first
			// sweep builds the state, and a later one reuses it. A serial
			// sweep puts its state back from the caller's goroutine, whose
			// next sweep finds it unless the goroutine moved to another P
			// in between, so the least of three warm sweeps is compared.
			cache = pipeline.NewCache()
			cold := bench(true, 1)
			faults = sim.SampleFaults(cold.CoreFaults(2), 4, 1)
			first := sweepBytes(t, cold, 2, faults)
			second := min(sweepBytes(t, bench(true, 1), 2, faults), sweepBytes(t, bench(true, 1), 2, faults),
				sweepBytes(t, bench(true, 1), 2, faults))
			if 4*second > first {
				t.Fatalf("warm sweep allocated %d bytes, more than a quarter of the cold sweep's %d", second, first)
			}
		})
	}
}

// poisonOn wraps a sweep's fork so that the lane of the fault hit picks
// runs its fault, then scrambles the fault-free responses its worker's
// diagnosis buffers hold and panics.
func poisonOn(fork func() sweepWorker, hit func(sim.Fault) bool) func() sweepWorker {
	return func() sweepWorker {
		w := fork()
		run := w.run
		w.run = func(f sim.Fault) (*bitset.Set, bool, []*sim.Response) {
			actual, detected, faulty := run(f)
			if hit(f) {
				good := make([]*sim.Response, len(w.diag.good))
				for bi, g := range w.diag.good {
					next := make([]uint64, len(g.Next))
					for i, v := range g.Next {
						next[i] = ^v
					}
					good[bi] = &sim.Response{Next: next, PO: g.PO}
				}
				w.diag.good = good
				panic("planted mid-fault panic")
			}
			return actual, detected, faulty
		}
		return w
	}
}

// sweepBytes returns the bytes one serial sweep of faults in core
// allocates.
func sweepBytes(t *testing.T, b *SOCBench, core int, faults []sim.Fault) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := b.RunCoreContext(newCountdown(1<<30), core, faults); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

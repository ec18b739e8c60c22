package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/diagnosis"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// equivNoisyOpts layers the unreliable-tester knobs over baseOpts so the
// equivalence tests cover the tri-state verdict path too.
func equivNoisyOpts(scheme partition.Scheme) Options {
	o := baseOpts(scheme)
	o.Noise = noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: 7}
	o.Retry = bist.RetryPolicy{MaxRetries: 4}
	o.VoteThreshold = 2
	return o
}

func setsEqual(a, b *bitset.Set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Equal(b)
}

func resultsEqual(a, b *diagnosis.Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || (setsEqual(a.Candidates, b.Candidates) &&
		setsEqual(a.Pruned, b.Pruned) && setsEqual(a.Confirmed, b.Confirmed))
}

// requireSameDiagnosis asserts that two FaultDiagnosis values agree on every
// field a caller can observe.
func requireSameDiagnosis(t *testing.T, label string, got, want *FaultDiagnosis) {
	t.Helper()
	if got.Fault != want.Fault {
		t.Fatalf("%s: fault %+v, want %+v", label, got.Fault, want.Fault)
	}
	if got.Detected != want.Detected {
		t.Fatalf("%s: detected %t, want %t", label, got.Detected, want.Detected)
	}
	if !setsEqual(got.Actual, want.Actual) {
		t.Fatalf("%s: actual cells %v, want %v", label, got.Actual.Elems(), want.Actual.Elems())
	}
	if !resultsEqual(got.Result, want.Result) {
		t.Fatalf("%s: result differs: got %+v, want %+v", label, got.Result, want.Result)
	}
	if !resultsEqual(got.Baseline, want.Baseline) {
		t.Fatalf("%s: baseline differs: got %+v, want %+v", label, got.Baseline, want.Baseline)
	}
	if !reflect.DeepEqual(got.Reliability, want.Reliability) {
		t.Fatalf("%s: reliability %+v, want %+v", label, got.Reliability, want.Reliability)
	}
	if !reflect.DeepEqual(got.CandidatesByPartition, want.CandidatesByPartition) {
		t.Fatalf("%s: candidates by partition %v, want %v",
			label, got.CandidatesByPartition, want.CandidatesByPartition)
	}
}

// TestPooledRunMatchesReference pins the sweep's invariant: the pooled
// Run path must reproduce the independent per-fault reference
// (referenceDiagnosis: full-pass simulation and the diagnoseFault oracle)
// bit-for-bit, across schemes and with the tester noise model both off
// and on.
func TestPooledRunMatchesReference(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	schemes := []partition.Scheme{partition.Interval{}, partition.RandomSelection{}, partition.TwoStep{}}
	for _, scheme := range schemes {
		for _, noisy := range []bool{false, true} {
			o := baseOpts(scheme)
			if noisy {
				o = equivNoisyOpts(scheme)
			}
			o.Workers = 4
			t.Run(fmt.Sprintf("%s/noisy=%t", scheme.Name(), noisy), func(t *testing.T) {
				b, err := NewCircuitBench(c, o)
				if err != nil {
					t.Fatal(err)
				}
				faults := sim.SampleFaults(b.Faults(), 40, 11)
				var pooled []*FaultDiagnosis
				b.RunObserved(faults, func(fd *FaultDiagnosis) { pooled = append(pooled, fd) })
				if len(pooled) != len(faults) {
					t.Fatalf("observed %d diagnoses for %d faults", len(pooled), len(faults))
				}
				for i, f := range faults {
					requireSameDiagnosis(t, fmt.Sprintf("fault %d (%+v)", i, f), pooled[i], referenceDiagnosis(b, f))
				}
			})
		}
	}
}

// TestStudyDeterministicAcrossWorkers asserts identical Studies — including
// Reliability and the robust-mode outputs — for every worker count.
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	for _, noisy := range []bool{false, true} {
		o := baseOpts(partition.TwoStep{})
		if noisy {
			o = equivNoisyOpts(partition.TwoStep{})
		}
		var want *Study
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			o.Workers = workers
			b, err := NewCircuitBench(c, o)
			if err != nil {
				t.Fatal(err)
			}
			faults := sim.SampleFaults(b.Faults(), 60, 5)
			study := b.Run(faults)
			if want == nil {
				want = study
				continue
			}
			if !reflect.DeepEqual(study, want) {
				t.Errorf("noisy=%t workers=%d: study %+v differs from workers=1 study %+v",
					noisy, workers, study, want)
			}
		}
	}
}

// TestCacheHitMatchesCacheMiss asserts that a bench built from cached
// artifacts behaves identically to one that built everything fresh.
func TestCacheHitMatchesCacheMiss(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	cache := pipeline.NewCache()
	o := equivNoisyOpts(partition.TwoStep{})
	o.Cache = cache

	warm, err := NewCircuitBench(c, o) // cold build populates the cache
	if err != nil {
		t.Fatal(err)
	}
	hit, err := NewCircuitBench(c, o) // same key: artifact-cache hit
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("cache stats %+v, want one miss then one hit", s)
	}
	o.Cache = nil
	fresh, err := NewCircuitBench(c, o) // no cache: builds from scratch
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(hit.GoldenSignatures(), fresh.GoldenSignatures()) {
		t.Error("golden signatures differ between cache-hit and fresh builds")
	}
	faults := sim.SampleFaults(fresh.Faults(), 40, 3)
	want := fresh.Run(faults)
	for label, b := range map[string]*CircuitBench{"warm": warm, "hit": hit} {
		if got := b.Run(faults); !reflect.DeepEqual(got, want) {
			t.Errorf("%s bench study %+v differs from fresh build %+v", label, got, want)
		}
	}
}

// TestWarmStartMatchesColdStart pins the persistence tier's correctness
// contract: a second process (fresh memory cache, same CacheDir) must
// produce bit-for-bit identical diagnoses while rebuilding nothing — the
// fault-free simulation layer comes off disk.
func TestWarmStartMatchesColdStart(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	schemes := []partition.Scheme{partition.Interval{}, partition.TwoStep{}}
	for _, scheme := range schemes {
		for _, noisy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noisy=%t", scheme.Name(), noisy), func(t *testing.T) {
				dir := t.TempDir()
				o := baseOpts(scheme)
				if noisy {
					o = equivNoisyOpts(scheme)
				}
				o.Workers = 4
				o.CacheDir = dir

				cold, err := NewCircuitBench(c, o)
				if err != nil {
					t.Fatal(err)
				}
				faults := sim.SampleFaults(cold.Faults(), 40, 3)
				want := cold.Run(faults)

				// Second process: a new cache over the same directory.
				o.Cache = pipeline.NewCache()
				warm, err := NewCircuitBench(c, o)
				if err != nil {
					t.Fatal(err)
				}
				got := warm.Run(faults)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("warm-start study %+v differs from cold-start study %+v", got, want)
				}
				if !reflect.DeepEqual(warm.GoldenSignatures(), cold.GoldenSignatures()) {
					t.Error("warm-start golden signatures differ from cold start")
				}
				s := o.Cache.Stats()
				if s.DiskHits == 0 {
					t.Errorf("warm process never hit the disk tier: stats %+v", s)
				}
				if s.DiskWrites != 0 {
					t.Errorf("warm process rebuilt %d artifacts that were on disk: stats %+v", s.DiskWrites, s)
				}
			})
		}
	}
}

// TestSOCWarmStartMatchesColdStart is the SOC-scope warm-start check: the
// persisted segment map and per-core layers must reproduce RunCore
// exactly, with zero core re-simulation.
func TestSOCWarmStartMatchesColdStart(t *testing.T) {
	var cores []*soc.Core
	for _, name := range []string{"s298", "s953"} {
		cores = append(cores, &soc.Core{Name: name, Circuit: benchgen.MustGenerate(name)})
	}
	s, err := soc.New("warm", cores...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := equivNoisyOpts(partition.TwoStep{})
	o.Workers = 4
	o.CacheDir = dir

	cold, err := NewSOCBench(s, o)
	if err != nil {
		t.Fatal(err)
	}
	const core = 1
	faults := sim.SampleFaults(cold.CoreFaults(core), 30, 17)
	want := cold.RunCore(core, faults)

	o.Cache = pipeline.NewCache()
	warm, err := NewSOCBench(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.RunCore(core, faults); !reflect.DeepEqual(got, want) {
		t.Errorf("warm-start SOC study %+v differs from cold start %+v", got, want)
	}
	st := o.Cache.Stats()
	if st.DiskHits == 0 || st.DiskWrites != 0 {
		t.Errorf("warm SOC process stats %+v: want disk hits and zero rebuilds", st)
	}
}

// TestSOCPooledMatchesReference is the SOC-level counterpart of
// TestPooledRunMatchesReference: RunCore's pooled path against the
// independent per-fault reference (referenceSOCDiagnosis), fault by fault
// and as a study, with and without noise.
func TestSOCPooledMatchesReference(t *testing.T) {
	var cores []*soc.Core
	for _, name := range []string{"s298", "s953", "s526"} {
		cores = append(cores, &soc.Core{Name: name, Circuit: benchgen.MustGenerate(name)})
	}
	s, err := soc.New("mini", cores...)
	if err != nil {
		t.Fatal(err)
	}
	for _, noisy := range []bool{false, true} {
		o := baseOpts(partition.TwoStep{})
		if noisy {
			o = equivNoisyOpts(partition.TwoStep{})
		}
		o.Workers = 4
		b, err := NewSOCBench(s, o)
		if err != nil {
			t.Fatal(err)
		}
		const core = 1
		faults := sim.SampleFaults(b.CoreFaults(core), 30, 17)

		var fds []*FaultDiagnosis
		pooled, err := b.RunCoreObservedContext(context.Background(), core, faults, func(fd *FaultDiagnosis) { fds = append(fds, fd) })
		if err != nil {
			t.Fatal(err)
		}
		if len(fds) != len(faults) {
			t.Fatalf("noisy=%t: observed %d diagnoses for %d faults", noisy, len(fds), len(faults))
		}
		refs := make([]*FaultDiagnosis, len(faults))
		for i, f := range faults {
			refs[i] = referenceSOCDiagnosis(b, core, f)
			requireSameDiagnosis(t, fmt.Sprintf("noisy=%t fault %d", noisy, i), fds[i], refs[i])
		}
		if ref := MergeObserved(o, o.Scheme.Name(), refs, nil); !reflect.DeepEqual(pooled, ref) {
			t.Errorf("noisy=%t: pooled SOC study %+v differs from reference %+v", noisy, pooled, ref)
		}

		o.Workers = 1
		b1, err := NewSOCBench(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if serial := b1.RunCore(core, faults); !reflect.DeepEqual(serial, pooled) {
			t.Errorf("noisy=%t: serial SOC study differs from pooled", noisy)
		}
	}
}

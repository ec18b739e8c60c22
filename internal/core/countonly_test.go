package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// countOnlyCase is one sweep whose count-only Study is checked: the
// bench's options, its faults, the sweep itself and the single-fault
// reference diagnosis of fault i.
type countOnlyCase struct {
	name   string
	o      Options
	faults []sim.Fault
	sweep  func(ctx context.Context, observe func(*FaultDiagnosis)) (*Study, error)
	ref    func(f sim.Fault) *FaultDiagnosis
}

func circuitCountOnlyCase(name string, b *CircuitBench, faults []sim.Fault) countOnlyCase {
	return countOnlyCase{
		name: name, o: b.Opts, faults: faults,
		sweep: func(ctx context.Context, observe func(*FaultDiagnosis)) (*Study, error) {
			return b.RunObservedContext(ctx, faults, observe)
		},
		ref: b.DiagnoseFault,
	}
}

func socCountOnlyCase(name string, b *SOCBench, core int, faults []sim.Fault) countOnlyCase {
	return countOnlyCase{
		name: name, o: b.Opts, faults: faults,
		sweep: func(ctx context.Context, observe func(*FaultDiagnosis)) (*Study, error) {
			return b.RunCoreObservedContext(ctx, core, faults, observe)
		},
		ref: func(f sim.Fault) *FaultDiagnosis { return b.DiagnoseFault(core, f) },
	}
}

// check runs the case's sweep count-only and observed, under contexts
// from ctx (a fresh one per sweep), and requires each Study to equal
// MergeObserved over the single-fault reference diagnoses of the prefix
// of faults that sweep finished; the observed sweep must also hand the
// observer exactly those diagnoses. When both sweeps finish the same
// prefix their Studies must be equal.
func (c countOnlyCase) check(t *testing.T, ctx func() context.Context) {
	t.Helper()
	refs := make([]*FaultDiagnosis, len(c.faults))
	for i, f := range c.faults {
		refs[i] = c.ref(f)
	}
	merged := func(n int) *Study {
		prefix := make([]*FaultDiagnosis, len(c.faults))
		copy(prefix, refs[:n])
		return MergeObserved(c.o, c.o.Scheme.Name(), prefix, nil)
	}
	counted, err := c.sweep(ctx(), nil)
	if err == nil && !counted.Completeness.Complete() {
		t.Fatalf("%s: count-only sweep finished %+v without an error", c.name, counted.Completeness)
	}
	if want := merged(counted.Completeness.Observed); !reflect.DeepEqual(counted, want) {
		t.Fatalf("%s: count-only study\n%+v\ndiffers from MergeObserved over DiagnoseFault\n%+v", c.name, counted, want)
	}
	var fds []*FaultDiagnosis
	observed, _ := c.sweep(ctx(), func(fd *FaultDiagnosis) { fds = append(fds, fd) })
	if n := observed.Completeness.Observed; len(fds) != n {
		t.Fatalf("%s: observer saw %d diagnoses of a %d-fault prefix", c.name, len(fds), n)
	}
	for i, fd := range fds {
		requireSameDiagnosis(t, fmt.Sprintf("%s fault %d", c.name, i), fd, refs[i])
	}
	if want := merged(len(fds)); !reflect.DeepEqual(observed, want) {
		t.Fatalf("%s: observed study\n%+v\ndiffers from MergeObserved over DiagnoseFault\n%+v", c.name, observed, want)
	}
	if counted.Completeness == observed.Completeness && !reflect.DeepEqual(counted, observed) {
		t.Fatalf("%s: count-only study\n%+v\ndiffers from the observed sweep's\n%+v", c.name, counted, observed)
	}
}

// TestCountOnlyStudyMatchesObserved: for every configuration of
// TestDiagnosisPinned and TestNoisyDiagnosisPinned, a sweep without an
// observer, which aggregates per-fault summaries and builds no per-fault
// set, yields the Study of the same sweep with an observer and of
// MergeObserved over per-fault DiagnoseFault results. The s13207 sample
// is also cut by a cancellation after half its faults.
func TestCountOnlyStudyMatchesObserved(t *testing.T) {
	background := func() context.Context { return context.Background() }
	var cases []countOnlyCase
	cache := pipeline.NewCache()
	s13207 := benchgen.MustGenerate("s13207")
	o := pinnedDiagOpts(16, 1, false)
	o.Cache = cache
	cb, err := NewCircuitBench(s13207, o)
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.SampleFaults(cb.Faults(), 500, 1)
	cases = append(cases, circuitCountOnlyCase("s13207", cb, faults))

	s1, err := soc.Preset("soc1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		chains int
		noisy  bool
	}{
		{"soc1-tam1", 1, false},
		{"soc1-tam1-noisy", 1, true},
		{"soc1-tam8", 8, false},
		{"soc1-tam8-noisy", 8, true},
	} {
		o := pinnedDiagOpts(32, c.chains, c.noisy)
		o.Cache = cache
		sb, err := NewSOCBench(s1, o)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range s1.Cores {
			cases = append(cases, socCountOnlyCase(fmt.Sprintf("%s core %d", c.name, ci), sb, ci, sim.SampleFaults(sb.CoreFaults(ci), 30, 1)))
		}
	}

	smini, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSOCBench(smini, pinnedNoiseOpts(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range smini.Cores {
		cases = append(cases, socCountOnlyCase(fmt.Sprintf("socmini core %d", ci), sb, ci, sim.SampleFaults(sb.CoreFaults(ci), 30, 3)))
	}
	nb, err := NewCircuitBench(benchgen.MustGenerate("s953"), pinnedNoiseOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, circuitCountOnlyCase("s953x2", nb, sim.SampleFaults(nb.Faults(), 80, 3)))

	for _, c := range cases {
		c.check(t, background)
	}

	// A serial sweep cancelled after as many context polls as half its
	// faults stops partway.
	o.Workers = 1
	serial, err := NewCircuitBench(s13207, o)
	if err != nil {
		t.Fatal(err)
	}
	cut := circuitCountOnlyCase("s13207-cut", serial, faults)
	budget := func() context.Context { return newCountdown(len(faults) / 2) }
	if st, _ := cut.sweep(budget(), nil); st.Completeness.Complete() || st.Completeness.Observed == 0 {
		t.Fatalf("s13207-cut: the countdown did not cut the sweep: %+v", st.Completeness)
	}
	cut.check(t, budget)
}

// FuzzSweepStudy checks the equalities of TestCountOnlyStudyMatchesObserved
// over small benchgen profiles, chain, group, partition and pattern
// counts, a perfect or noisy tester with retries and a vote threshold, 1
// or 2 workers, and a cancellation after a number of context polls (none
// when the budget is 0); a cancelled sweep is checked on the prefix it
// finished.
func FuzzSweepStudy(f *testing.F) {
	f.Add(uint8(7), uint8(1), uint8(4), uint8(3), uint8(64), false, uint8(0), uint8(0), uint8(1), uint16(0), int64(1))
	f.Add(uint8(7), uint8(2), uint8(3), uint8(4), uint8(100), true, uint8(4), uint8(2), uint8(2), uint16(0), int64(2))
	f.Add(uint8(9), uint8(1), uint8(8), uint8(2), uint8(40), true, uint8(2), uint8(1), uint8(2), uint16(9), int64(3))
	f.Add(uint8(4), uint8(2), uint8(2), uint8(5), uint8(128), false, uint8(0), uint8(0), uint8(1), uint16(17), int64(4))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(1), uint8(16), true, uint8(1), uint8(3), uint8(2), uint16(3), int64(5))
	f.Fuzz(func(t *testing.T, profile, chains, groups, partitions, patterns uint8, noisy bool, retries, vote, workers uint8, budget uint16, seed int64) {
		profs := benchgen.Profiles()[:10] // s27 … s1423
		c := benchgen.MustGenerate(profs[int(profile)%len(profs)].Name)
		o := Options{
			Scheme:     partition.TwoStep{},
			Groups:     2 + int(groups)%7,
			Partitions: 1 + int(partitions)%5,
			Patterns:   8 + int(patterns)%121,
			Chains:     1 + int(chains)%2,
			Workers:    1 + int(workers)%2,
		}
		if noisy {
			o.Noise = noise.Model{Intermittent: 0.5, Flip: 0.05, Abort: 0.05, Seed: uint64(seed)}
			o.Retry = bist.RetryPolicy{MaxRetries: int(retries) % 5}
			o.VoteThreshold = int(vote) % (o.Partitions + 1)
		}
		b, err := NewCircuitBench(c, o)
		if err != nil {
			t.Skip(err) // a group count the shortest chain cannot hold
		}
		faults := sim.SampleFaults(b.Faults(), 40, seed)
		ctx := func() context.Context { return context.Background() }
		if budget > 0 {
			ctx = func() context.Context { return newCountdown(int(budget) % (len(faults) + 4)) }
		}
		circuitCountOnlyCase(fmt.Sprintf("%s %+v budget=%d", c.Name, o, budget), b, faults).check(t, ctx)
	})
}

// TestCountStepAllocFree: the count-only per-fault step of a sweep
// (diagWorker.count, an allochot entry) allocates nothing once its
// worker is warm, on s13207 behind a perfect tester and a noisy one.
func TestCountStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its puts under -race")
	}
	c := benchgen.MustGenerate("s13207")
	cache := pipeline.NewCache()
	for _, noisy := range []bool{false, true} {
		o := pinnedDiagOpts(16, 1, noisy)
		o.Cache = cache
		b, err := NewCircuitBench(c, o)
		if err != nil {
			t.Fatal(err)
		}
		fs, w := b.fs.Fork(), b.worker()
		sc := fs.NewScratch()
		var sum faultSummary
		byPart := make([]int32, o.Partitions)
		detected := 0
		for _, f := range sim.SampleFaults(b.Faults(), 20, 1) {
			res := fs.RunInto(f, sc)
			actual, det, faulty := res.FailingCells, res.Detected(), res.Faulty
			step := func() { w.count(f, actual, det, faulty, &sum, byPart) }
			step()
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Fatalf("noisy=%t %s: the count-only step allocates %v times per fault", noisy, f.Describe(c), n)
			}
			if det {
				detected++
			}
		}
		if detected == 0 {
			t.Fatalf("noisy=%t: no detected fault in the sample", noisy)
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/soc"
)

// countdownCtx is a deterministic cancellable context: Err returns nil
// for the first allotted calls and context.Canceled from then on, and
// Done is non-nil, as for any cancellable context. Counting Err polls instead of
// arming a wall-clock deadline makes every cancellation point in these
// tests reproducible; calls counts total polls so a test can measure a
// full run and then budget a fraction of it — the deterministic analogue
// of "deadline at 50% of the runtime".
type countdownCtx struct {
	mu    sync.Mutex
	left  int
	calls int
	done  chan struct{}
}

func newCountdown(allow int) *countdownCtx {
	return &countdownCtx{left: allow, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// runFull collects a full sweep under a cancellable-but-never-cancelled
// context, the reference the partial runs must be a prefix of.
func runFull(t *testing.T, b *CircuitBench, faults []sim.Fault) (*Study, []*FaultDiagnosis, int) {
	t.Helper()
	ctx := newCountdown(1 << 30)
	var fds []*FaultDiagnosis
	study, err := b.RunObservedContext(ctx, faults, func(fd *FaultDiagnosis) { fds = append(fds, fd) })
	if err != nil {
		t.Fatalf("uncancelled sweep returned %v", err)
	}
	if !study.Completeness.Complete() || study.Completeness.Scheduled != len(faults) {
		t.Fatalf("uncancelled sweep completeness %+v", study.Completeness)
	}
	return study, fds, ctx.calls
}

// TestCancelSweepPartialIsPrefix sweeps the cancellation point across a
// run: wherever the countdown lands — before the first job, between the
// lanes of one, or past the end — the partial study must aggregate a
// bit-for-bit prefix of the full run's per-fault diagnoses and label
// itself with how far it got. The single-batch cases, whose faults fit
// one job, can only stop partway by cancelling mid-lane, with helpers
// sharing the job's lanes when there are several workers.
func TestCancelSweepPartialIsPrefix(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	for _, tc := range []struct {
		name        string
		workers     int
		singleBatch bool
	}{
		{"batches", 1, false},
		{"single-batch", 1, true},
		{"single-batch-helpers", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := baseOpts(partition.TwoStep{})
			o.Workers = tc.workers
			b, err := NewCircuitBench(c, o)
			if err != nil {
				t.Fatal(err)
			}
			faults := sim.SampleFaults(b.Faults(), 3*sweepJob, 9)
			if tc.singleBatch {
				faults = singleJobSample(t, faults)
			}
			fullStudy, full, fullCalls := runFull(t, b, faults)

			// The cancellable full run must aggregate to the same study as
			// the context-free one.
			if want := b.Run(faults); !reflect.DeepEqual(fullStudy, want) {
				t.Fatalf("cancellable full sweep %+v differs from context-free run %+v", fullStudy, want)
			}

			partials := 0
			for trip := 1; trip < fullCalls; trip = trip*2 + 1 {
				ctx := newCountdown(trip)
				var got []*FaultDiagnosis
				study, err := b.RunObservedContext(ctx, faults, func(fd *FaultDiagnosis) { got = append(got, fd) })
				n := study.Completeness.Observed
				if err == nil && tc.workers > 1 && n == len(faults) {
					// With several workers the poll count varies from run
					// to run, so a late trip may never be reached.
					if !reflect.DeepEqual(got, full) {
						t.Fatalf("trip=%d: uncancelled sweep differs from the full run", trip)
					}
					continue
				}
				if err == nil {
					t.Fatalf("trip=%d: cancelled sweep reported no error", trip)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("trip=%d: err = %v, want context.Canceled", trip, err)
				}
				if study.Completeness.Scheduled != len(faults) || n != len(got) {
					t.Fatalf("trip=%d: completeness %+v for %d observed diagnoses",
						trip, study.Completeness, len(got))
				}
				if n > 0 && !reflect.DeepEqual(got, full[:n]) {
					t.Fatalf("trip=%d: partial diagnoses are not a prefix of the full run (observed %d)", trip, n)
				}
				if n > 0 && n < len(faults) {
					partials++
				}
			}
			if partials == 0 {
				t.Fatal("no cancellation point produced a strictly partial study; the sweep never cancelled mid-run")
			}
		})
	}
}

// TestCancelSweepHalfDeadlineS13207 is the acceptance scenario on the
// paper's large benchmark: cancel a s13207 sweep halfway through (by
// context-poll budget, the deterministic stand-in for a 50% wall-clock
// deadline) and require a sound partial study — a strict prefix, correct
// completeness metadata, and no stuck goroutines.
func TestCancelSweepHalfDeadlineS13207(t *testing.T) {
	if testing.Short() {
		t.Skip("s13207 sweep in -short mode")
	}
	c := benchgen.MustGenerate("s13207")
	o := baseOpts(partition.TwoStep{})
	o.Workers = 1
	b, err := NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	// Enough faults for several jobs, so a mid-run cancel can land
	// between them as well as between lanes.
	faults := sim.SampleFaults(b.Faults(), 2*sweepJob+8, 3)
	_, full, fullCalls := runFull(t, b, faults)

	before := runtime.NumGoroutine()
	ctx := newCountdown(fullCalls / 2)
	var got []*FaultDiagnosis
	study, err := b.RunObservedContext(ctx, faults, func(fd *FaultDiagnosis) { got = append(got, fd) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := study.Completeness.Observed
	if n <= 0 || n >= len(faults) {
		t.Fatalf("half-deadline sweep observed %d of %d faults, want a strict partial", n, len(faults))
	}
	if study.Completeness.Scheduled != len(faults) {
		t.Fatalf("completeness %+v, want %d scheduled", study.Completeness, len(faults))
	}
	if !reflect.DeepEqual(got, full[:n]) {
		t.Fatal("partial diagnoses are not a bit-for-bit prefix of the full run")
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines fails the test if the goroutine count has not
// returned to its pre-run level shortly after a cancelled sweep — i.e.
// the executor leaked workers.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := 100
	for ; deadline > 0; deadline-- {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before cancelled sweep, %d after", before, runtime.NumGoroutine())
}

// TestCancelSweepParallelNoLeak cancels a parallel sweep and requires
// the pool to drain completely: the returned study is still a contiguous
// prefix and every worker goroutine exits.
func TestCancelSweepParallelNoLeak(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	o := baseOpts(partition.TwoStep{})
	o.Workers = 8
	b, err := NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.SampleFaults(b.Faults(), 60, 5)
	_, full, fullCalls := runFull(t, b, faults)

	before := runtime.NumGoroutine()
	ctx := newCountdown(fullCalls / 3)
	var got []*FaultDiagnosis
	study, err := b.RunObservedContext(ctx, faults, func(fd *FaultDiagnosis) { got = append(got, fd) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := study.Completeness.Observed
	if n != len(got) || (n > 0 && !reflect.DeepEqual(got, full[:n])) {
		t.Fatalf("parallel partial study is not a prefix (observed %d)", n)
	}
	waitForGoroutines(t, before)
}

// faultCase is one per-fault diagnosis input of the degraded-mode
// tests: the full DiagnoseFault outcome and a DiagnoseFaultContext run of
// the same fault on a circuit or SOC bench.
type faultCase struct {
	label   string
	full    func() *FaultDiagnosis
	partial func(ctx context.Context) (*FaultDiagnosis, error)
}

// circuitCases samples n faults of s953 on a bench built with o.
func circuitCases(t *testing.T, o Options, n int, seed int64) []faultCase {
	t.Helper()
	c := benchgen.MustGenerate("s953")
	b, err := NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	var cases []faultCase
	for _, f := range sim.SampleFaults(b.Faults(), n, seed) {
		cases = append(cases, faultCase{
			label:   "s953 " + f.Describe(c),
			full:    func() *FaultDiagnosis { return b.DiagnoseFault(f) },
			partial: func(ctx context.Context) (*FaultDiagnosis, error) { return b.DiagnoseFaultContext(ctx, f) },
		})
	}
	return cases
}

// socCases samples n faults of every socmini core on a bench built with o.
func socCases(t *testing.T, o Options, n int, seed int64) []faultCase {
	t.Helper()
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSOCBench(s, o)
	if err != nil {
		t.Fatal(err)
	}
	var cases []faultCase
	for core := range s.Cores {
		for _, f := range sim.SampleFaults(b.CoreFaults(core), n, seed) {
			cases = append(cases, faultCase{
				label:   fmt.Sprintf("socmini core %d %s", core, f.Describe(s.Cores[core].Circuit)),
				full:    func() *FaultDiagnosis { return b.DiagnoseFault(core, f) },
				partial: func(ctx context.Context) (*FaultDiagnosis, error) { return b.DiagnoseFaultContext(ctx, core, f) },
			})
		}
	}
	return cases
}

// TestCancelDiagnosePartialSuperset pins degraded-mode soundness fault
// by fault: a diagnosis cut off after k partitions must report a
// superset of the full run's candidates (partition intersection is
// monotone, and under a vote threshold a cell's pass votes only grow
// with k), completeness metadata saying exactly k, and a
// CandidatesByPartition curve that is a prefix of the full one.
func TestCancelDiagnosePartialSuperset(t *testing.T) {
	voted := baseOpts(partition.TwoStep{})
	voted.VoteThreshold = 2
	for _, o := range []Options{baseOpts(partition.TwoStep{}), voted} {
		cases := append(circuitCases(t, o, 15, 23), socCases(t, o, 5, 23)...)
		for _, fc := range cases {
			checkPartialSuperset(t, fmt.Sprintf("vote=%d %s", o.VoteThreshold, fc.label), o.Partitions, fc)
		}
	}
}

func checkPartialSuperset(t *testing.T, label string, parts int, fc faultCase) {
	t.Helper()
	full := fc.full()
	for k := 0; k <= parts; k++ {
		// VerdictsUpTo polls ctx once per partition; allowing k polls
		// cancels it after exactly k observed partitions.
		fd, err := fc.partial(newCountdown(k))
		if !full.Detected {
			if fd.Detected {
				t.Fatalf("%s: partial run detected a fault the full run missed", label)
			}
			return
		}
		if k < parts {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s k=%d: err = %v, want context.Canceled", label, k, err)
			}
		} else if err != nil {
			t.Fatalf("%s k=%d: err = %v for a fully observed run", label, k, err)
		}
		if fd.Completeness.Observed != k || fd.Completeness.Scheduled != parts {
			t.Fatalf("%s k=%d: completeness %+v", label, k, fd.Completeness)
		}
		if !fd.Result.Candidates.SupersetOf(full.Result.Candidates) {
			t.Fatalf("%s k=%d: partial candidates %v are not a superset of full %v",
				label, k, fd.Result.Candidates.Elems(), full.Result.Candidates.Elems())
		}
		if got, want := fd.CandidatesByPartition, full.CandidatesByPartition[:k]; !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%s k=%d: candidate curve %v, want prefix %v", label, k, got, want)
		}
		if k == parts {
			if !fd.Result.Candidates.Equal(full.Result.Candidates) {
				t.Fatalf("%s: fully observed partial run differs from DiagnoseFault", label)
			}
			if !fd.Completeness.Complete() {
				t.Fatalf("%s: fully observed run not marked complete: %+v", label, fd.Completeness)
			}
		}
	}
}

// TestCancelDiagnoseZeroPartitionsIsNoInformation: cancelled at entry,
// the degraded diagnosis must fall back to the sound no-information
// answer — every cell a candidate — rather than an empty set, on a
// perfect tester and under noise alike.
func TestCancelDiagnoseZeroPartitionsIsNoInformation(t *testing.T) {
	for _, o := range []Options{baseOpts(partition.TwoStep{}), equivNoisyOpts(partition.TwoStep{})} {
		for _, fc := range circuitCases(t, o, 10, 31) {
			full := fc.full()
			if !full.Detected {
				continue
			}
			fd, err := fc.partial(newCountdown(0))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", fc.label, err)
			}
			if fd.Completeness.Observed != 0 {
				t.Fatalf("%s: completeness %+v, want zero observed", fc.label, fd.Completeness)
			}
			if !fd.Result.Candidates.SupersetOf(full.Actual) {
				t.Fatalf("%s: zero-partition candidates exclude actually failing cells", fc.label)
			}
		}
	}
}

// TestDiagnoseFaultContextMatchesDiagnoseFault: an uncancelled
// DiagnoseFaultContext is DiagnoseFault, under every option that shapes
// the diagnosis — including a vote threshold on a perfect tester, which
// the deadline-aware path once ignored.
func TestDiagnoseFaultContextMatchesDiagnoseFault(t *testing.T) {
	voted := baseOpts(partition.TwoStep{})
	voted.VoteThreshold = 2
	for _, o := range []Options{baseOpts(partition.TwoStep{}), voted, equivNoisyOpts(partition.TwoStep{})} {
		cases := append(circuitCases(t, o, 60, 7), socCases(t, o, 10, 7)...)
		for _, fc := range cases {
			label := fmt.Sprintf("noisy=%t vote=%d %s", o.Noise.Enabled(), o.VoteThreshold, fc.label)
			got, err := fc.partial(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameDiagnosis(t, label, got, fc.full())
			if c := got.Completeness; c.Observed != o.Partitions || c.Scheduled != o.Partitions {
				t.Fatalf("%s: completeness %+v, want %d of %d", label, c, o.Partitions, o.Partitions)
			}
		}
	}
}

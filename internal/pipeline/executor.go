package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/retry"
)

// Executor schedules independent jobs over a worker pool in deterministic
// batches: workers claim contiguous index ranges from an atomic cursor,
// which amortises scheduling to one atomic per batch and keeps each
// worker's cache lines on neighbouring faults. Results written by index
// are identical for every worker count — only the assignment of index to
// goroutine varies.
type Executor struct {
	// Workers bounds the goroutines; 0 selects GOMAXPROCS, 1 forces
	// serial execution on the calling goroutine. Negative values are
	// clamped to the default (GOMAXPROCS).
	Workers int
	// Batch is the number of jobs a worker claims per cursor advance;
	// 0 selects a small default. Negative values are clamped to the
	// default.
	Batch int
	// Retry re-runs jobs that fail with an error marked
	// retry.Transient, up to the policy's attempt budget. The zero value
	// is a single attempt. Panics are never retried: a panicking job is
	// a bug, not load.
	Retry retry.Policy
	// Backend, when non-nil, dispatches each claimed job through an
	// external execution substrate instead of a per-worker closure: the
	// mkWorker argument of Run/RunContext may then be nil, and Workers
	// bounds the in-flight dispatches rather than CPU-bound goroutines.
	// Everything else — deterministic claiming, panic isolation,
	// transient retry, lowest-index error — applies unchanged, which is
	// what lets a remote shard dispatcher (internal/shard) reuse this
	// executor verbatim.
	Backend Backend
}

// Backend executes claimed jobs somewhere other than the calling
// process — e.g. a coordinator sending each job to a remote worker over
// a connection pool. A failure marked retry.Transient is re-dispatched
// under the executor's retry policy (typically landing on a different
// healthy connection); other errors fail the run.
type Backend interface {
	RunJob(ctx context.Context, job int) error
}

// WorkerError is a panic recovered inside an Executor worker, converted
// to a typed error so one faulty job fails the run instead of crashing
// the process. It records which job (and, when the job annotated its
// panic via JobPanic, which batch lane and fault) blew up, the panic
// value, and the goroutine stack at the panic site.
type WorkerError struct {
	// Job is the job index passed to the worker function.
	Job int
	// Lane is the batch lane being materialized: the RunLanes lane that
	// panicked, or the lane a JobPanic annotation names; -1 for a panic
	// outside any lane that the job did not annotate.
	Lane int
	// Detail optionally identifies the work unit (e.g. the fault being
	// diagnosed), as annotated by the job.
	Detail string
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery.
	Stack []byte
}

func (e *WorkerError) Error() string {
	msg := fmt.Sprintf("pipeline: job %d panicked: %v", e.Job, e.Value)
	if e.Lane >= 0 {
		msg = fmt.Sprintf("pipeline: job %d (lane %d) panicked: %v", e.Job, e.Lane, e.Value)
	}
	if e.Detail != "" {
		msg += " [" + e.Detail + "]"
	}
	return msg
}

// JobPanic lets a job annotate a panic unwinding out of it with the
// batch lane and work-unit identity it was processing; the executor
// unwraps it into the WorkerError's Lane and Detail fields. Jobs raise
// it from their own recover:
//
//	defer func() {
//		if r := recover(); r != nil {
//			panic(&JobPanic{Lane: lane, Detail: fault, Value: r})
//		}
//	}()
type JobPanic struct {
	Lane   int
	Detail string
	Value  any
}

// normalized clamps out-of-range knobs to their documented defaults, so a
// caller threading a user-supplied -workers flag straight through cannot
// wedge the pool.
func (e Executor) normalized() Executor {
	if e.Workers < 0 {
		e.Workers = 0
	}
	if e.Batch < 0 {
		e.Batch = 0
	}
	return e
}

// Run executes jobs 0..n-1. Each worker calls mkWorker once to obtain its
// job function — the closure carries any per-worker scratch state — and
// then calls it with every claimed index. A job panic is converted to a
// *WorkerError and re-panicked on the calling goroutine once the pool has
// drained, preserving the pre-context crash-loudly contract.
func (e Executor) Run(n int, mkWorker func() func(int)) {
	err := e.RunContext(context.Background(), n, func() func(int) error {
		job := mkWorker()
		return func(i int) error { job(i); return nil }
	})
	if err != nil {
		panic(err)
	}
}

// RunBatches schedules jobs that are already coarse units of work — e.g.
// compiled fault batches, each covering up to 64 faults — over the pool.
// It is Run with a claim granularity of one job per cursor advance: batch
// jobs are orders of magnitude heavier than single-fault jobs, so claiming
// several at once would only skew the load.
func (e Executor) RunBatches(n int, mkWorker func() func(int)) {
	e.Batch = 1
	e.Run(n, mkWorker)
}

// RunBatchesContext is RunContext with the single-claim granularity of
// RunBatches.
func (e Executor) RunBatchesContext(ctx context.Context, n int, mkWorker func() func(int) error) error {
	e.Batch = 1
	return e.RunContext(ctx, n, mkWorker)
}

// runState is one RunContext invocation's shared coordination record. It
// carries the run's context so worker goroutines can poll it at claim
// granularity — the documented exception to the "never store a Context
// in a struct" rule (see the ctxfirst analyzer): the struct is scoped to
// a single call and never outlives it.
type runState struct {
	ctx     context.Context
	stopped atomic.Bool
	mu      sync.Mutex
	errJob  int
	errLane int
	err     error
}

// stop requests that workers claim no further work.
func (rs *runState) stop() { rs.stopped.Store(true) }

// halted reports whether workers should stop claiming: a job failed or
// the context ended. Polled once per claim, not per job.
func (rs *runState) halted() bool {
	return rs.stopped.Load() || rs.ctx.Err() != nil
}

// record keeps the failure of the lowest (job, lane) index — lane -1
// for a failure outside any lane — so the error a run reports is
// deterministic under any worker interleaving.
func (rs *runState) record(job, lane int, err error) {
	rs.mu.Lock()
	if rs.err == nil || job < rs.errJob || (job == rs.errJob && lane < rs.errLane) {
		rs.errJob, rs.errLane, rs.err = job, lane, err
	}
	rs.mu.Unlock()
	rs.stop()
}

// laneHalted reports whether lanes of job should stop being claimed: the
// context ended, or a job at or below this index failed. A failure in a
// later job leaves this job's lanes running, so a lower-indexed failure
// among them is still found and reported, as a serial run would.
func (rs *runState) laneHalted(job int) bool {
	if rs.ctx.Err() != nil {
		return true
	}
	if !rs.stopped.Load() {
		return false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.err != nil && rs.errJob <= job
}

// RunContext executes jobs 0..n-1 like Run, with three resilience layers:
//
//   - Cancellation: workers poll ctx at claim granularity; when ctx ends,
//     no further ranges are claimed, in-flight jobs drain, and the claim
//     cursor's monotonicity means the completed jobs form a contiguous
//     prefix of 0..n-1 (minus any job that itself returned ctx's error).
//     RunContext then returns ctx.Err().
//   - Panic isolation: a panicking job is recovered into a *WorkerError
//     carrying the job index, annotated lane/fault (see JobPanic), panic
//     value, and stack; the pool drains and the error is returned instead
//     of crashing the process.
//   - Bounded retry: a job failing with an error marked retry.Transient
//     is re-run in place under e.Retry before its failure is reported.
//
// The first failure by job index wins; on failure remaining jobs of the
// claimed range are skipped. Results written by index are identical for
// every worker count.
func (e Executor) RunContext(ctx context.Context, n int, mkWorker func() func(int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e = e.normalized()
	if e.Backend != nil {
		mkWorker = func() func(int) error {
			return func(i int) error { return e.Backend.RunJob(ctx, i) }
		}
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	batch := e.Batch
	if batch <= 0 {
		batch = 4
	}
	rs := &runState{ctx: ctx, errJob: n}

	runRange := func(job func(int) error, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := e.runJob(rs, i, -1, func() error { return job(i) }); err != nil {
				rs.record(i, -1, err)
				return
			}
		}
	}

	if workers <= 1 {
		job := mkWorker()
		for lo := 0; lo < n && !rs.halted(); lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			runRange(job, lo, hi)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				job := mkWorker()
				for !rs.halted() {
					hi := int(next.Add(int64(batch)))
					lo := hi - batch
					if lo >= n {
						return
					}
					if hi > n {
						hi = n
					}
					runRange(job, lo, hi)
				}
			}()
		}
		wg.Wait()
	}

	return rs.result()
}

// result is the run's outcome once the pool has drained: the recorded
// failure, else the context's error.
func (rs *runState) result() error {
	rs.mu.Lock()
	err := rs.err
	rs.mu.Unlock()
	if err != nil {
		return err
	}
	return rs.ctx.Err()
}

// runJob runs one job (lane -1) or one lane of it with panic isolation
// and the transient-failure retry policy. A panic reports the lane unless
// the job annotated it with a JobPanic.
func (e Executor) runJob(rs *runState, i, lane int, fn func() error) error {
	return retry.Do(rs.ctx, e.Retry, func(int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				we := &WorkerError{Job: i, Lane: lane, Value: r, Stack: debug.Stack()}
				if jp, ok := r.(*JobPanic); ok {
					we.Lane, we.Detail, we.Value = jp.Lane, jp.Detail, jp.Value
				}
				err = we
			}
		}()
		return fn()
	})
}

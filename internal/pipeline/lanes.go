package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// LaneJob is one worker's pair of functions for RunLanes. Head runs the
// shared part of job i once — a fault batch's kernel — and returns a
// handle on its output together with the job's lane count. Lane runs lane
// k of job i from that handle. A lane may run on any worker, not only the
// one whose Head produced the handle, so Lane must only read the handle
// and keep what it writes in its own worker's state.
type LaneJob[H any] struct {
	Head func(i int) (h H, lanes int, err error)
	Lane func(h H, i, k int) error
}

// RunLanes executes jobs 0..n-1 that each split into a head and lanes,
// such as a compiled fault batch (one kernel run) and its faults (one
// materialization and diagnosis each). Workers claim jobs one at a time
// in index order; the claimer runs the head and then claims the job's
// lanes in lane order from a per-job cursor. A worker that finds no job
// left to claim joins the lowest in-flight job that still has unclaimed
// lanes and runs lanes from its handle, so a sweep of a few large
// batches keeps every worker busy without a barrier between batches.
// Helping starts only once claiming has failed for good, so the owner of
// a helped job never claims another one: a handle is never overwritten
// while a helper still reads it.
//
// Each worker calls mkWorker once, when it first claims a head or a
// lane; a worker that never gets work builds no state. The Executor's
// resilience layers apply per head and per lane:
//
//   - Cancellation: when ctx ends no further job or lane is claimed and
//     claimed ones drain. Claims are monotonic, so the finished lanes of
//     each job are a prefix of its lanes. RunLanes then returns ctx.Err().
//   - Panic isolation: a panicking head or lane becomes a *WorkerError
//     with the job index and, for a lane, its lane index (or the JobPanic
//     annotation).
//   - Bounded retry: a transient failure is re-run in place under e.Retry.
//
// The failure of the lowest (job, lane) wins, with a head ordered before
// its lanes: a failure stops claims of later jobs and of its own job's
// later lanes, while lanes of earlier jobs run on, so the reported error
// is the one a serial run reports. Results written by (job, lane) are
// identical for every worker count. e.Batch and e.Backend do not apply.
func RunLanes[H any](ctx context.Context, e Executor, n int, mkWorker func() LaneJob[H]) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e = e.normalized()
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &lanePool[H]{e: e, rs: &runState{ctx: ctx, errJob: n}, n: n, mkWorker: mkWorker}
	p.wake.L = &p.mu
	if workers <= 1 {
		p.work()
		return p.rs.result()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()
	return p.rs.result()
}

// lanePool is one RunLanes invocation's scheduling state.
type lanePool[H any] struct {
	e        Executor
	rs       *runState
	n        int
	mkWorker func() LaneJob[H]

	mu      sync.Mutex
	wake    sync.Cond // signalled when a head finishes
	next    int       // next unclaimed job
	pending int       // claimed jobs whose head is still running
	open    []*laneJob[H]
}

// laneJob is one job whose head has run: its handle and lane cursor.
type laneJob[H any] struct {
	job, lanes int
	h          H
	next       atomic.Int64 // next unclaimed lane
}

// work is one worker's life: own jobs while any are left to claim, then
// help with the lanes of the jobs still in flight.
func (p *lanePool[H]) work() {
	var w *LaneJob[H]
	worker := func() *LaneJob[H] {
		if w == nil {
			lj := p.mkWorker()
			w = &lj
		}
		return w
	}
	for {
		i, ok := p.claim()
		if !ok {
			break
		}
		if j := p.head(worker(), i); j != nil {
			p.lanes(worker(), j)
			p.retire(j)
		}
	}
	for {
		j := p.join()
		if j == nil {
			return
		}
		p.lanes(worker(), j)
	}
}

// claim takes the next job, unless none is left or the run halted. Both
// conditions are permanent and claims are serialized by p.mu, so once a
// claim fails every later claim by any worker fails too. That keeps
// handles safe: a worker helps only after its own claim failed, so by
// the time any helper reads a handle its owner can claim no other job to
// overwrite it with.
func (p *lanePool[H]) claim() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next >= p.n || p.rs.halted() {
		return 0, false
	}
	i := p.next
	p.next++
	p.pending++
	return i, true
}

// head runs job i's head and publishes its lanes to idle workers. It
// returns nil when the head failed.
func (p *lanePool[H]) head(w *LaneJob[H], i int) *laneJob[H] {
	j := &laneJob[H]{job: i}
	err := p.e.runJob(p.rs, i, -1, func() (err error) {
		j.h, j.lanes, err = w.Head(i)
		return err
	})
	if err != nil {
		p.rs.record(i, -1, err)
	}
	p.mu.Lock()
	p.pending--
	if err == nil {
		at := len(p.open)
		for at > 0 && p.open[at-1].job > i {
			at--
		}
		p.open = append(p.open, nil)
		copy(p.open[at+1:], p.open[at:])
		p.open[at] = j
	}
	p.mu.Unlock()
	p.wake.Broadcast()
	if err != nil {
		return nil
	}
	return j
}

// lanes claims and runs j's lanes until they run out or the run halts
// for this job.
func (p *lanePool[H]) lanes(w *LaneJob[H], j *laneJob[H]) {
	for !p.rs.laneHalted(j.job) {
		k := int(j.next.Add(1) - 1)
		if k >= j.lanes {
			return
		}
		if err := p.e.runJob(p.rs, j.job, k, func() error { return w.Lane(j.h, j.job, k) }); err != nil {
			p.rs.record(j.job, k, err)
			return
		}
	}
}

// retire withdraws the owner's job, whose lanes are all claimed, from
// the helpers' view. Helpers still running its lanes finish them before
// the run returns.
func (p *lanePool[H]) retire(j *laneJob[H]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for at, o := range p.open {
		if o == j {
			p.open = append(p.open[:at], p.open[at+1:]...)
			return
		}
	}
}

// join returns the lowest in-flight job with unclaimed lanes, waiting
// while heads are still running; nil once no job can offer lanes any
// more.
func (p *lanePool[H]) join() *laneJob[H] {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.rs.ctx.Err() == nil {
		for _, j := range p.open {
			if int(j.next.Load()) < j.lanes && !p.rs.laneHalted(j.job) {
				return j
			}
		}
		if p.pending == 0 {
			return nil
		}
		p.wake.Wait()
	}
	return nil
}

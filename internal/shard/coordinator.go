package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/pipeline"
	"repro/internal/retry"
)

// WorkerConn is one established connection to a shard worker. A
// connection carries at most one job at a time (the coordinator's pool
// enforces it), so no framing beyond the envelope is needed.
type WorkerConn struct {
	addr  string
	conn  net.Conn
	hello codec.ShardHello
}

// Node names the worker for progress output: its self-reported node
// name, or the dial address if it reported none.
func (w *WorkerConn) Node() string {
	if w.hello.Node != "" {
		return w.hello.Node
	}
	return w.addr
}

// Hello returns the worker's greeting (node name, pid, worker count,
// cache directory).
func (w *WorkerConn) Hello() codec.ShardHello { return w.hello }

// Close tears the connection down.
func (w *WorkerConn) Close() error { return w.conn.Close() }

// helloTimeout bounds how long a dial waits for the worker's greeting:
// a listener that accepts but never speaks the protocol should fail the
// dial, not hang the coordinator.
const helloTimeout = 10 * time.Second

// Dial connects to a worker at addr — "host:port" for TCP, or
// "unix:/path/to.sock" for a Unix socket — and consumes its hello.
func Dial(ctx context.Context, addr string) (*WorkerConn, error) {
	network, target := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, target = "unix", path
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, target)
	if err != nil {
		return nil, fmt.Errorf("shard: dial %s: %w", addr, err)
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	conn.SetDeadline(time.Now().Add(helloTimeout))
	env, hdr, err := codec.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("shard: %s: reading hello: %w", addr, err)
	}
	if hdr.Kind != codec.KindShardHello {
		conn.Close()
		return nil, fmt.Errorf("shard: %s: expected hello, got %v", addr, hdr.Kind)
	}
	hello, err := codec.DecodeShardHello(env)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("shard: %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return &WorkerConn{addr: addr, conn: conn, hello: *hello}, nil
}

// DialAll connects to every address; on any failure it closes the
// connections already made and reports the first error.
func DialAll(ctx context.Context, addrs []string) ([]*WorkerConn, error) {
	conns := make([]*WorkerConn, 0, len(addrs))
	for _, addr := range addrs {
		wc, err := Dial(ctx, addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, wc)
	}
	return conns, nil
}

// Coordinator fans shard jobs out over a pool of worker connections and
// merges the verdict deltas deterministically. The dispatch loop is the
// pipeline.Executor: Workers = live connections, Backend = this pool, so
// deterministic claiming, panic isolation, transient retry, and
// lowest-index error semantics all carry over from the local sweep.
type Coordinator struct {
	// Conns is the worker pool; the coordinator owns the connections for
	// the duration of a run but Close is the caller's.
	Conns []*WorkerConn
	// Shards is the number of shards to split each fault list into;
	// 0 selects DefaultShards(len(Conns)).
	Shards int
	// ShardTimeout bounds one shard's round trip; 0 means no per-shard
	// deadline. A timed-out shard is retried on another connection.
	ShardTimeout time.Duration
	// Retry governs re-dispatch of transiently failed shards (dead
	// connections, worker-reported transient errors, shard timeouts).
	// Zero selects 3 attempts.
	Retry retry.Policy
	// Progress, when non-nil, receives human-readable dispatch events:
	// shard hand-offs, worker progress frames, connection deaths.
	Progress func(format string, args ...any)
}

func (c *Coordinator) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

func (c *Coordinator) shardCount() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return DefaultShards(len(c.Conns))
}

func (c *Coordinator) retryPolicy() retry.Policy {
	if c.Retry.MaxAttempts > 0 {
		return c.Retry
	}
	return retry.Policy{MaxAttempts: 3}
}

// errAllWorkersDead fails remaining shards permanently once no live
// connection is left; the merged study then reports the completed
// shards as a sound degraded subset.
var errAllWorkersDead = errors.New("shard: every worker connection has failed")

// dispatchPool is the executor Backend: each RunJob borrows a live
// connection, runs one job exchange on it, and returns it — or retires
// it, if the exchange left the stream in an unknown state.
type dispatchPool struct {
	co      *Coordinator
	jobs    []*codec.ShardJob
	results []*codec.ShardResult
	pool    chan *WorkerConn
	live    atomic.Int64
	allDead chan struct{}
}

func (c *Coordinator) newPool(jobs []*codec.ShardJob) *dispatchPool {
	p := &dispatchPool{
		co:      c,
		jobs:    jobs,
		results: make([]*codec.ShardResult, len(jobs)),
		pool:    make(chan *WorkerConn, len(c.Conns)),
		allDead: make(chan struct{}),
	}
	for _, wc := range c.Conns {
		p.pool <- wc
	}
	p.live.Store(int64(len(c.Conns)))
	return p
}

func (p *dispatchPool) retire(wc *WorkerConn, why error) {
	wc.Close()
	p.co.progress("worker %s: connection retired: %v", wc.Node(), why)
	if p.live.Add(-1) == 0 {
		close(p.allDead)
	}
}

// RunJob dispatches job i to some live worker. Errors from a dead or
// misbehaving connection are marked retry.Transient so the executor
// re-dispatches the shard — which then lands on a different connection,
// the failed one having been retired from the pool.
func (p *dispatchPool) RunJob(ctx context.Context, i int) error {
	var wc *WorkerConn
	select {
	case wc = <-p.pool:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.allDead:
		return errAllWorkersDead
	}
	job := p.jobs[i]
	p.co.progress("worker %s: shard %d (%d faults)", wc.Node(), job.ID, len(job.Indices))
	res, connOK, err := p.exchange(ctx, wc, job)
	if err == nil {
		if verr := validateResult(job, res); verr != nil {
			// The frame decoded and checksummed clean, so the worker
			// itself is confused; distrust both the result and the
			// connection.
			err, connOK = verr, false
		}
	}
	if connOK {
		p.pool <- wc
	} else {
		p.retire(wc, err)
	}
	if err != nil {
		return err
	}
	p.results[i] = res
	return nil
}

// exchange runs one job round trip on wc: send the job, consume
// progress frames, return the result or error frame. connOK reports
// whether the connection is still in a known-good state (a worker-
// reported error leaves it usable; any transport or protocol failure
// does not).
func (p *dispatchPool) exchange(ctx context.Context, wc *WorkerConn, job *codec.ShardJob) (res *codec.ShardResult, connOK bool, err error) {
	// A context ending mid-exchange must unblock the socket I/O; the
	// poisoned deadline retires the connection, which is correct — the
	// stream may hold a half-read frame.
	stop := context.AfterFunc(ctx, func() { wc.conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if p.co.ShardTimeout > 0 {
		wc.conn.SetDeadline(time.Now().Add(p.co.ShardTimeout))
	} else {
		wc.conn.SetDeadline(time.Time{})
	}

	fail := func(e error) (*codec.ShardResult, bool, error) {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, false, ctxErr
		}
		return nil, false, retry.Transient(fmt.Errorf("shard: worker %s: %w", wc.Node(), e))
	}

	if err := codec.WriteFrame(wc.conn, codec.EncodeShardJob(job)); err != nil {
		return fail(fmt.Errorf("sending shard %d: %w", job.ID, err))
	}
	for {
		env, hdr, err := codec.ReadFrame(wc.conn)
		if err != nil {
			return fail(fmt.Errorf("awaiting shard %d: %w", job.ID, err))
		}
		switch hdr.Kind {
		case codec.KindShardProgress:
			pr, err := codec.DecodeShardProgress(env)
			if err != nil || pr.JobID != job.ID {
				return fail(fmt.Errorf("shard %d: bad progress frame", job.ID))
			}
			p.co.progress("worker %s: shard %d: %d/%d", wc.Node(), job.ID, pr.Done, pr.Total)
		case codec.KindShardResult:
			sr, err := codec.DecodeShardResult(env)
			if err != nil || sr.JobID != job.ID {
				return fail(fmt.Errorf("shard %d: bad result frame", job.ID))
			}
			return sr, true, nil
		case codec.KindShardError:
			se, err := codec.DecodeShardError(env)
			if err != nil || se.JobID != job.ID {
				return fail(fmt.Errorf("shard %d: bad error frame", job.ID))
			}
			// The worker completed the exchange cleanly; the connection
			// is fine even though the shard is not.
			werr := fmt.Errorf("shard: worker %s: shard %d: %s", wc.Node(), job.ID, se.Msg)
			if se.Transient {
				return nil, true, retry.Transient(werr)
			}
			return nil, true, werr
		default:
			return fail(fmt.Errorf("shard %d: unexpected %v frame", job.ID, hdr.Kind))
		}
	}
}

// validateResult checks a result frame against the job that produced
// it: right kind, and exactly one unit result per dispatched index, in
// order — chain outcomes for a chain job, diagnoses otherwise.
func validateResult(job *codec.ShardJob, res *codec.ShardResult) error {
	if res.Kind != job.Kind {
		return fmt.Errorf("shard: shard %d: result kind %d, want %d", job.ID, res.Kind, job.Kind)
	}
	n, index := len(res.Diagnoses), func(k int) uint32 { return res.Diagnoses[k].Index }
	if job.Kind == codec.JobChain {
		n, index = len(res.Chains), func(k int) uint32 { return res.Chains[k].Index }
	}
	if n != len(job.Indices) {
		return fmt.Errorf("shard: shard %d: %d results for %d units", job.ID, n, len(job.Indices))
	}
	for k, want := range job.Indices {
		if got := index(k); got != want {
			return fmt.Errorf("shard: shard %d: result %d is for unit %d, want %d", job.ID, k, got, want)
		}
	}
	return nil
}

// run dispatches all jobs over the pool and returns the results slice,
// nil slots marking shards that permanently failed (the error explains
// the lowest-indexed failure, per Executor semantics).
func (c *Coordinator) run(ctx context.Context, jobs []*codec.ShardJob) ([]*codec.ShardResult, error) {
	if len(c.Conns) == 0 {
		return nil, errors.New("shard: coordinator has no worker connections")
	}
	p := c.newPool(jobs)
	err := pipeline.Executor{
		Workers: len(c.Conns),
		Retry:   c.retryPolicy(),
		Backend: p,
	}.RunBatchesContext(ctx, len(jobs), nil)
	return p.results, err
}

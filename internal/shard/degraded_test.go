package shard

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
)

// startFakeWorker serves the hello handshake and then hands the
// connection to handler — a scripted worker for failure injection.
// The accept loop and its per-connection goroutines are owned by the
// listener, not this scope: ln.Close at test cleanup unblocks Accept
// and the handlers return with their connections (goleak exemption).
func startFakeWorker(t *testing.T, handler func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := codec.WriteFrame(conn, codec.EncodeShardHello(&codec.ShardHello{Node: "fake"})); err != nil {
					return
				}
				handler(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// diesMidShard accepts a job, reports a little progress, and drops the
// connection — a worker crashing in the middle of a shard.
func diesMidShard(conn net.Conn) {
	env, _, err := codec.ReadFrame(conn)
	if err != nil {
		return
	}
	job, err := codec.DecodeShardJob(env)
	if err != nil {
		return
	}
	codec.WriteFrame(conn, codec.EncodeShardProgress(&codec.ShardProgress{
		JobID: job.ID, Done: 1, Total: uint32(len(job.Indices)),
	}))
}

// alwaysFailsPermanently reports every job as a permanent failure.
func alwaysFailsPermanently(conn net.Conn) {
	for {
		env, _, err := codec.ReadFrame(conn)
		if err != nil {
			return
		}
		job, err := codec.DecodeShardJob(env)
		if err != nil {
			return
		}
		frame := codec.EncodeShardError(&codec.ShardError{
			JobID: job.ID, Transient: false, Msg: "injected permanent failure",
		})
		if err := codec.WriteFrame(conn, frame); err != nil {
			return
		}
	}
}

// failsLastShard serves jobs through srv, except shard failID, which it
// reports as a permanent failure. Failing the highest job ID leaves
// every other shard claimed before the failure stops dispatch, so the
// gap in the merged result is exactly that one shard.
func failsLastShard(srv *Server, failID uint64) func(net.Conn) {
	return func(conn net.Conn) {
		for {
			env, _, err := codec.ReadFrame(conn)
			if err != nil {
				return
			}
			job, err := codec.DecodeShardJob(env)
			if err != nil {
				return
			}
			frame := codec.EncodeShardError(&codec.ShardError{
				JobID: job.ID, Transient: false, Msg: "injected permanent failure",
			})
			if job.ID != failID {
				res, err := srv.runJob(context.Background(), conn, job)
				if err != nil {
					return
				}
				frame = codec.EncodeShardResult(res)
			}
			if err := codec.WriteFrame(conn, frame); err != nil {
				return
			}
		}
	}
}

// lastShardPool dials two connections to a worker that fails the
// coordinator's last shard of n uniform-cost units, and returns the
// coordinator and the global indices that shard covers.
func lastShardPool(t *testing.T, n int) (*Coordinator, []int) {
	t.Helper()
	const shards = 4
	plan := PlanShards(UniformCosts(n), shards)
	srv := NewServer(ServerConfig{Node: "selective", Workers: 1})
	conns := dialPool(t, startFakeWorker(t, failsLastShard(srv, uint64(len(plan)))), 2)
	return &Coordinator{Conns: conns, Shards: shards}, plan[len(plan)-1].Indices
}

func degradedFixture(t *testing.T) (*core.CircuitBench, core.Options, []sim.Fault, []*core.FaultDiagnosis, codec.DeviceRef) {
	t.Helper()
	c := benchgen.MustGenerate("s953")
	o := core.Options{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 4, Patterns: 64}
	bench, err := core.NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.SampleFaults(bench.Faults(), 60, 21)
	var want []*core.FaultDiagnosis
	if _, err := bench.RunObservedContext(context.Background(), faults, func(fd *core.FaultDiagnosis) {
		want = append(want, fd)
	}); err != nil {
		t.Fatal(err)
	}
	return bench, o, faults, want, ProfileRef("s953", 0, 1, c)
}

// A worker dying mid-shard must not lose the shard: the connection is
// retired and the shard re-dispatched to a healthy worker, yielding the
// complete bit-identical study.
func TestShardWorkerDeathRecovered(t *testing.T) {
	_, o, faults, want, ref := degradedFixture(t)
	healthy := startWorker(t, ServerConfig{Node: "good", Workers: 1})
	flaky := startFakeWorker(t, diesMidShard)
	conns, err := DialAll(context.Background(), []string{flaky, healthy})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Conns: conns}
	var got []*core.FaultDiagnosis
	study, err := co.RunCircuit(context.Background(), ref, o, faults, nil, func(fd *core.FaultDiagnosis) {
		got = append(got, fd)
	})
	if err != nil {
		t.Fatalf("run failed despite a healthy worker: %v", err)
	}
	if study.Completeness.Observed != len(faults) {
		t.Fatalf("observed %d of %d after recovery", study.Completeness.Observed, len(faults))
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d of %d diagnoses", len(got), len(want))
	}
	for i := range want {
		sameDiag(t, i, want[i], got[i])
	}
}

// With every worker dead, the run must fail cleanly — no hang, no
// fabricated verdicts — and report zero observed faults.
func TestShardAllWorkersDead(t *testing.T) {
	_, o, faults, _, ref := degradedFixture(t)
	conns, err := DialAll(context.Background(), []string{
		startFakeWorker(t, diesMidShard),
		startFakeWorker(t, diesMidShard),
	})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Conns: conns}
	study, err := co.RunCircuit(context.Background(), ref, o, faults, nil, nil)
	if err == nil {
		t.Fatal("run succeeded with no live workers")
	}
	if study.Completeness.Observed != 0 {
		t.Fatalf("observed %d faults from dead workers", study.Completeness.Observed)
	}
	if study.Completeness.Scheduled != len(faults) {
		t.Fatalf("scheduled %d, want %d", study.Completeness.Scheduled, len(faults))
	}
}

// A permanent worker-reported failure must surface as the run error
// while every shard that did complete merges soundly: each observed
// diagnosis is bit-identical to the single-process sweep's.
func TestShardPermanentFailureSoundSubset(t *testing.T) {
	_, o, faults, want, ref := degradedFixture(t)
	healthy := startWorker(t, ServerConfig{Node: "good", Workers: 1})
	broken := startFakeWorker(t, alwaysFailsPermanently)
	conns, err := DialAll(context.Background(), []string{broken, healthy})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Conns: conns}
	byFault := make(map[sim.Fault]*core.FaultDiagnosis, len(want))
	for _, fd := range want {
		byFault[fd.Fault] = fd
	}
	var got []*core.FaultDiagnosis
	study, err := co.RunCircuit(context.Background(), ref, o, faults, nil, func(fd *core.FaultDiagnosis) {
		got = append(got, fd)
	})
	if err == nil {
		t.Fatal("permanent failure did not surface")
	}
	if !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("error does not name the worker failure: %v", err)
	}
	if study.Completeness.Observed != len(got) {
		t.Fatalf("completeness %d but %d observed", study.Completeness.Observed, len(got))
	}
	for i, fd := range got {
		ref, ok := byFault[fd.Fault]
		if !ok {
			t.Fatalf("observed fault %v not in the dispatched list", fd.Fault)
		}
		sameDiag(t, i, ref, fd)
	}
}

// A permanent failure in an SOC core run leaves the merged study an
// aggregate of the completed shards: Completeness counts exactly the
// missing shard's faults, every observed diagnosis matches the
// single-process sweep, and each candidate set still covers the cells
// the fault really fails.
func TestShardPermanentFailureSOCCore(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 4, Patterns: 64, Ideal: true}
	bench, err := core.NewSOCBench(s, o)
	if err != nil {
		t.Fatal(err)
	}
	const coreIdx = 1
	faults := sim.SampleFaults(bench.CoreFaults(coreIdx), 40, 23)
	byFault := make(map[sim.Fault]*core.FaultDiagnosis, len(faults))
	if _, err := bench.RunCoreObservedContext(context.Background(), coreIdx, faults, func(fd *core.FaultDiagnosis) {
		byFault[fd.Fault] = fd
	}); err != nil {
		t.Fatal(err)
	}
	co, missing := lastShardPool(t, len(faults))
	var got []*core.FaultDiagnosis
	study, err := co.RunSOCCore(context.Background(), SOCRef("socmini", s), coreIdx, o, faults, nil, func(fd *core.FaultDiagnosis) {
		got = append(got, fd)
	})
	if err == nil || !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("err = %v, want the injected permanent failure", err)
	}
	if study == nil {
		t.Fatal("no study for the completed shards")
	}
	if c := study.Completeness; c.Scheduled != len(faults) || c.Observed != len(faults)-len(missing) {
		t.Fatalf("completeness %+v, want %d of %d observed", c, len(faults)-len(missing), len(faults))
	}
	if len(got) != study.Completeness.Observed {
		t.Fatalf("observed %d diagnoses, completeness says %d", len(got), study.Completeness.Observed)
	}
	lost := make(map[sim.Fault]bool, len(missing))
	for _, i := range missing {
		lost[faults[i]] = true
	}
	for i, fd := range got {
		if lost[fd.Fault] {
			t.Fatalf("fault %v of the failed shard was reported", fd.Fault)
		}
		sameDiag(t, i, byFault[fd.Fault], fd)
		if fd.Result == nil {
			continue
		}
		if !fd.Result.Candidates.SupersetOf(fd.Actual) || !fd.Result.Pruned.SupersetOf(fd.Actual) {
			t.Fatalf("fault %v: candidates %v / pruned %v miss actual %v",
				fd.Fault, fd.Result.Candidates, fd.Result.Pruned, fd.Actual)
		}
	}
}

// A permanent failure in a chain sweep leaves nil outcomes exactly at
// the failed shard's injections and real outcomes everywhere else.
func TestShardPermanentFailureChain(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	n := 2 * c.NumDFFs()
	co, missing := lastShardPool(t, n)
	got, err := co.RunChain(context.Background(), ProfileRef("s298", 0, 1, c), scan.NaturalOrder(c.NumDFFs()), n)
	if err == nil || !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("err = %v, want the injected permanent failure", err)
	}
	if len(got) != n {
		t.Fatalf("%d outcomes for %d injections", len(got), n)
	}
	lost := make(map[int]bool, len(missing))
	for _, i := range missing {
		lost[i] = true
	}
	for i, out := range got {
		if (out == nil) != lost[i] {
			t.Fatalf("injection %d: nil outcome %v, in failed shard %v", i, out == nil, lost[i])
		}
	}
}

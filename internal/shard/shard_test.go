package shard

import (
	"context"
	"net"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
)

// startWorker serves a shard worker on a loopback listener for the
// test's lifetime and returns its dial address.
func startWorker(t *testing.T, cfg ServerConfig) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// dialPool opens n connections to addr — an n-worker pool against one
// server process — and closes them at cleanup.
func dialPool(t *testing.T, addr string, n int) []*WorkerConn {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = addr
	}
	conns, err := DialAll(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, wc := range conns {
			wc.Close()
		}
	})
	return conns
}

func sameSet(a, b *bitset.Set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Equal(b)
}

// sameDiag asserts two per-fault diagnoses agree on everything a local
// sweep produces.
func sameDiag(t *testing.T, i int, want, got *core.FaultDiagnosis) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("fault %d: nil mismatch: want %v, got %v", i, want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if want.Fault != got.Fault {
		t.Fatalf("fault %d: identity %v vs %v", i, want.Fault, got.Fault)
	}
	if want.Detected != got.Detected {
		t.Fatalf("fault %d: detected %v vs %v", i, want.Detected, got.Detected)
	}
	if !sameSet(want.Actual, got.Actual) {
		t.Fatalf("fault %d: actual cells differ", i)
	}
	if (want.Result == nil) != (got.Result == nil) {
		t.Fatalf("fault %d: result nil mismatch", i)
	}
	if want.Result != nil {
		if !sameSet(want.Result.Candidates, got.Result.Candidates) ||
			!sameSet(want.Result.Pruned, got.Result.Pruned) ||
			!sameSet(want.Result.Confirmed, got.Result.Confirmed) {
			t.Fatalf("fault %d: candidate sets differ", i)
		}
	}
	if !reflect.DeepEqual(want.CandidatesByPartition, got.CandidatesByPartition) {
		t.Fatalf("fault %d: per-partition counts %v vs %v", i, want.CandidatesByPartition, got.CandidatesByPartition)
	}
	if want.Completeness != got.Completeness {
		t.Fatalf("fault %d: completeness %+v vs %+v", i, want.Completeness, got.Completeness)
	}
	if (want.Baseline == nil) != (got.Baseline == nil) {
		t.Fatalf("fault %d: baseline nil mismatch", i)
	}
	if want.Baseline != nil {
		if !sameSet(want.Baseline.Candidates, got.Baseline.Candidates) ||
			!sameSet(want.Baseline.Pruned, got.Baseline.Pruned) ||
			!sameSet(want.Baseline.Confirmed, got.Baseline.Confirmed) {
			t.Fatalf("fault %d: baseline sets differ", i)
		}
	}
	if (want.Reliability == nil) != (got.Reliability == nil) {
		t.Fatalf("fault %d: reliability nil mismatch", i)
	}
	if want.Reliability != nil && *want.Reliability != *got.Reliability {
		t.Fatalf("fault %d: reliability %+v vs %+v", i, *want.Reliability, *got.Reliability)
	}
}

// sameStudy asserts two studies agree on every aggregate.
func sameStudy(t *testing.T, want, got *core.Study) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("studies differ:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestPlanShardsBalance(t *testing.T) {
	costs := []int{100, 1, 1, 1, 90, 1, 1, 80, 1, 70}
	shards := PlanShards(costs, 4)
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	seen := make(map[int]bool)
	total := 0
	for _, sh := range shards {
		if len(sh.Indices) == 0 {
			t.Fatal("empty shard survived")
		}
		for k := 1; k < len(sh.Indices); k++ {
			if sh.Indices[k] <= sh.Indices[k-1] {
				t.Fatalf("shard indices not ascending: %v", sh.Indices)
			}
		}
		for _, i := range sh.Indices {
			if seen[i] {
				t.Fatalf("fault %d assigned twice", i)
			}
			seen[i] = true
		}
		total += len(sh.Indices)
	}
	if total != len(costs) {
		t.Fatalf("covered %d of %d faults", total, len(costs))
	}
	// LPT keeps the heaviest shard within max-fault of the mean: with the
	// four big faults spread out, no shard should hold two of them.
	for _, sh := range shards {
		big := 0
		for _, i := range sh.Indices {
			if costs[i] >= 70 {
				big++
			}
		}
		if big > 1 {
			t.Fatalf("two heavy faults in one shard: %v", sh.Indices)
		}
	}
}

func TestPlanShardsDeterministic(t *testing.T) {
	costs := []int{5, 5, 3, 3, 2, 2, 1, 1}
	a := PlanShards(costs, 3)
	b := PlanShards(costs, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same inputs planned differently")
	}
}

func TestPlanShardsDegenerate(t *testing.T) {
	if got := PlanShards(nil, 4); got != nil {
		t.Fatalf("empty fault list planned %d shards", len(got))
	}
	one := PlanShards([]int{7}, 8)
	if len(one) != 1 || len(one[0].Indices) != 1 {
		t.Fatalf("single fault plan: %+v", one)
	}
	if DefaultShards(0) != spreadFactor {
		t.Fatalf("DefaultShards(0) = %d", DefaultShards(0))
	}
}

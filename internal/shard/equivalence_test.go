package shard

import (
	"context"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/chaindiag"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/soc"
)

// The equivalence matrix: single-process sweeps versus {1, 2, 4}-worker
// sharded runs, across stuck-at (perfect and noisy testers), SOC
// meta-chain, and chain-fault sweeps. Every per-fault
// verdict and every study aggregate (bar batch-plan shape) must be
// bit-identical at every worker count.

var workerCounts = []int{1, 2, 4}

func testOpts(scheme partition.Scheme) core.Options {
	return core.Options{Scheme: scheme, Groups: 4, Partitions: 4, Patterns: 64}
}

func TestShardEquivalenceCircuit(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	configs := []struct {
		name string
		opts core.Options
	}{
		{"perfect", testOpts(partition.TwoStep{})},
		{"noisy", func() core.Options {
			o := testOpts(partition.TwoStep{})
			o.Noise = noise.Model{Intermittent: 0.1, Flip: 0.02, Seed: 7}
			o.VoteThreshold = 2
			return o
		}()},
		{"interval-chains", func() core.Options {
			o := testOpts(partition.FixedInterval{})
			o.Chains = 4
			return o
		}()},
	}
	addr := startWorker(t, ServerConfig{Node: "w1", Workers: 2})
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			bench, err := core.NewCircuitBench(c, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			faults := sim.SampleFaults(bench.Faults(), 80, 21)
			var want []*core.FaultDiagnosis
			wantStudy, err := bench.RunObservedContext(context.Background(), faults, func(fd *core.FaultDiagnosis) {
				want = append(want, fd)
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := ProfileRef("s953", 0, 1, c)
			for _, workers := range workerCounts {
				co := &Coordinator{Conns: dialPool(t, addr, workers)}
				var got []*core.FaultDiagnosis
				gotStudy, err := co.RunCircuit(context.Background(), ref, cfg.opts, faults, StuckAtCosts(c, faults), func(fd *core.FaultDiagnosis) {
					got = append(got, fd)
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: observed %d of %d faults", workers, len(got), len(want))
				}
				for i := range want {
					sameDiag(t, i, want[i], got[i])
				}
				sameStudy(t, wantStudy, gotStudy)
			}
		})
	}
}

func TestShardEquivalenceSOC(t *testing.T) {
	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	ref := SOCRef("socmini", s)
	addr := startWorker(t, ServerConfig{Node: "w1", Workers: 2})
	for _, chains := range []int{1, 4} {
		o := testOpts(partition.TwoStep{})
		o.Chains = chains
		bench, err := core.NewSOCBench(s, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range []int{0, 1} {
			faults := sim.SampleFaults(bench.CoreFaults(ci), 25, 23)
			var want []*core.FaultDiagnosis
			wantStudy, err := bench.RunCoreObservedContext(context.Background(), ci, faults, func(fd *core.FaultDiagnosis) {
				want = append(want, fd)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				co := &Coordinator{Conns: dialPool(t, addr, workers)}
				var got []*core.FaultDiagnosis
				gotStudy, err := co.RunSOCCore(context.Background(), ref, ci, o, faults, nil, func(fd *core.FaultDiagnosis) {
					got = append(got, fd)
				})
				if err != nil {
					t.Fatalf("chains=%d workers=%d core %d: %v", chains, workers, ci, err)
				}
				if len(got) != len(want) {
					t.Fatalf("chains=%d workers=%d core %d: observed %d of %d", chains, workers, ci, len(got), len(want))
				}
				for i := range want {
					sameDiag(t, i, want[i], got[i])
				}
				sameStudy(t, wantStudy, gotStudy)
			}
		}
	}
}

func TestShardEquivalenceChain(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	n := c.NumDFFs()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Reference: chaindiag's own sweep, inline.
	type outcome struct {
		located, exact bool
		cands          int
	}
	want := make([]outcome, 2*n)
	for i := range want {
		truth := chaindiag.ChainFault{Position: i / 2, Stuck: uint8(i % 2)}
		dut, err := chaindiag.NewDevice(c, order, &truth)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := chaindiag.Diagnose(c, order, dut.LoadCaptureObserve)
		if err != nil {
			t.Fatal(err)
		}
		want[i].cands = len(cands)
		for _, cand := range cands {
			if cand.Fault != nil && *cand.Fault == truth {
				want[i].located = true
				want[i].exact = len(cands) == 1
				break
			}
		}
	}
	ref := ProfileRef("s298", 0, 1, c)
	addr := startWorker(t, ServerConfig{Node: "w1", Workers: 2})
	for _, workers := range workerCounts {
		co := &Coordinator{Conns: dialPool(t, addr, workers)}
		got, err := co.RunChain(context.Background(), ref, order, 2*n)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] == nil {
				t.Fatalf("workers=%d: injection %d missing", workers, i)
			}
			if got[i].Located != want[i].located || got[i].Exact != want[i].exact || got[i].Cands != want[i].cands {
				t.Fatalf("workers=%d: injection %d: got %+v, want %+v", workers, i, *got[i], want[i])
			}
		}
	}
}

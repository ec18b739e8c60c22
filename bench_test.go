package scanbist_test

// The benchmark harness: one benchmark per paper table/figure (exercising
// the full generate→simulate→compact→diagnose pipeline at a reduced fault
// sample; run cmd/experiments for paper-scale numbers) plus the ablation
// benchmarks DESIGN.md calls out and micro-benchmarks of the hot kernels.
// DR outcomes are attached to benchmark output as custom metrics, so
// `go test -bench` doubles as a compact results table.

import (
	"context"
	"runtime"
	"testing"

	scanbist "repro"
	"repro/internal/adaptive"
	"repro/internal/atpg"
	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/chaindiag"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/experiments"
	"repro/internal/lfsr"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/reseed"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/testability"
	"repro/internal/vectors"
)

var benchCfg = experiments.Config{Faults: 60, FaultSeed: 1}

func BenchmarkTable1(b *testing.B) {
	var last []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(last[0].Interval, "DR-interval-1")
	b.ReportMetric(last[len(last)-1].TwoStep, "DR-twostep-8")
	b.ReportMetric(last[len(last)-1].Random, "DR-random-8")
}

func BenchmarkTable2(b *testing.B) {
	var last []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	sumR, sumT := 0.0, 0.0
	for _, r := range last {
		sumR += r.Random
		sumT += r.TwoStep
	}
	b.ReportMetric(sumR/float64(len(last)), "DR-random-avg")
	b.ReportMetric(sumT/float64(len(last)), "DR-twostep-avg")
}

func benchmarkSOCTable(b *testing.B, run func(context.Context, experiments.Config) ([]experiments.SOCRow, error)) {
	var last []experiments.SOCRow
	for i := 0; i < b.N; i++ {
		rows, err := run(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	sumR, sumT := 0.0, 0.0
	for _, r := range last {
		sumR += r.Random
		sumT += r.TwoStep
	}
	b.ReportMetric(sumR/float64(len(last)), "DR-random-avg")
	b.ReportMetric(sumT/float64(len(last)), "DR-twostep-avg")
}

func BenchmarkTable3(b *testing.B) { benchmarkSOCTable(b, experiments.Table3) }

func BenchmarkTable4(b *testing.B) { benchmarkSOCTable(b, experiments.Table4) }

func BenchmarkFigure3(b *testing.B) {
	var last *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(len(last.IntervalCandidates)), "candidates-interval")
	b.ReportMetric(float64(len(last.RandomCandidates)), "candidates-random")
}

func BenchmarkFigure5(b *testing.B) {
	var last []experiments.Figure5Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	sumR, sumT := 0, 0
	for _, r := range last {
		if r.Random < 0 {
			sumR += 17
		} else {
			sumR += r.Random
		}
		if r.TwoStep < 0 {
			sumT += 17
		} else {
			sumT += r.TwoStep
		}
	}
	b.ReportMetric(float64(sumR)/float64(len(last)), "partitions-random-avg")
	b.ReportMetric(float64(sumT)/float64(len(last)), "partitions-twostep-avg")
}

// --- Ablations -----------------------------------------------------------

// runStudy builds a bench for s5378 with the given options and returns the
// study over a fixed fault sample.
func runStudy(b *testing.B, opts scanbist.Options) *scanbist.Study {
	b.Helper()
	c := scanbist.MustGenerate("s5378")
	cb, err := scanbist.NewCircuitBench(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	faults := scanbist.SampleFaults(cb.Faults(), 60, 1)
	return cb.Run(faults)
}

// BenchmarkAblationScanOrder shows that interval-based pruning depends on
// the structure/position correlation: a random scan order erases two-step's
// first-partition advantage.
func BenchmarkAblationScanOrder(b *testing.B) {
	c := scanbist.MustGenerate("s5378")
	for _, order := range []string{"natural", "random"} {
		b.Run(order, func(b *testing.B) {
			opts := scanbist.Options{
				Scheme: scanbist.TwoStep(), Groups: 8, Partitions: 8, Patterns: 128,
			}
			if order == "random" {
				opts.ScanOrder = scanbist.RandomScanOrder(c.NumDFFs(), 1)
			}
			var study *scanbist.Study
			for i := 0; i < b.N; i++ {
				study = runStudy(b, opts)
			}
			b.ReportMetric(study.ByPartition[0].Value(), "DR-1-partition")
			b.ReportMetric(study.Full.Value(), "DR-full")
		})
	}
}

// BenchmarkAblationIntervalCount varies how many leading interval
// partitions the two-step scheme uses (the paper uses 1 but notes more can
// help).
func BenchmarkAblationIntervalCount(b *testing.B) {
	for _, m := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "interval1", 2: "interval2", 3: "interval3"}[m], func(b *testing.B) {
			opts := scanbist.Options{
				Scheme: partition.TwoStep{IntervalPartitions: m},
				Groups: 8, Partitions: 8, Patterns: 128,
			}
			var study *scanbist.Study
			for i := 0; i < b.N; i++ {
				study = runStudy(b, opts)
			}
			b.ReportMetric(study.ByPartition[2].Value(), "DR-3-partitions")
			b.ReportMetric(study.Full.Value(), "DR-full")
		})
	}
}

// BenchmarkAblationMISR compares real (aliasing-capable) compaction with an
// ideal alias-free compactor.
func BenchmarkAblationMISR(b *testing.B) {
	for _, mode := range []string{"misr32", "misr16", "ideal"} {
		b.Run(mode, func(b *testing.B) {
			opts := scanbist.Options{
				Scheme: scanbist.TwoStep(), Groups: 8, Partitions: 8, Patterns: 128,
			}
			switch mode {
			case "misr16":
				opts.MISRPoly = lfsr.MustPrimitivePoly(16)
			case "ideal":
				opts.Ideal = true
			}
			var study *scanbist.Study
			for i := 0; i < b.N; i++ {
				study = runStudy(b, opts)
			}
			b.ReportMetric(study.Full.Value(), "DR-full")
		})
	}
}

// BenchmarkAblationGroupCount varies the number of groups per partition.
func BenchmarkAblationGroupCount(b *testing.B) {
	for _, groups := range []int{4, 8, 16, 32} {
		b.Run(map[int]string{4: "g4", 8: "g8", 16: "g16", 32: "g32"}[groups], func(b *testing.B) {
			opts := scanbist.Options{
				Scheme: scanbist.TwoStep(), Groups: groups, Partitions: 8, Patterns: 128,
			}
			var study *scanbist.Study
			for i := 0; i < b.N; i++ {
				study = runStudy(b, opts)
			}
			b.ReportMetric(study.Full.Value(), "DR-full")
		})
	}
}

// BenchmarkAblationSimWidth measures the value of 64-way bit-parallel
// simulation against pattern-at-a-time blocks.
func BenchmarkAblationSimWidth(b *testing.B) {
	c := benchgen.MustGenerate("s5378")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	wide := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	var narrow []*sim.Block
	for _, blk := range wide {
		for j := 0; j < blk.N; j++ {
			nb := &sim.Block{N: 1, PI: make([]uint64, len(blk.PI)), State: make([]uint64, len(blk.State))}
			for i := range blk.PI {
				nb.PI[i] = blk.PI[i] >> uint(j) & 1
			}
			for i := range blk.State {
				nb.State[i] = blk.State[i] >> uint(j) & 1
			}
			narrow = append(narrow, nb)
		}
	}
	faults := sim.SampleFaults(sim.FullFaultList(c), 20, 1)
	for _, tc := range []struct {
		name   string
		blocks []*sim.Block
	}{{"parallel64", wide}, {"scalar", narrow}} {
		b.Run(tc.name, func(b *testing.B) {
			fs := sim.NewFaultSim(c, tc.blocks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range faults {
					fs.Run(f)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the hot kernels ---------------------------------

func BenchmarkFaultSimulation(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.SampleFaults(sim.FullFaultList(c), 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Run(faults[i%len(faults)])
	}
}

// BenchmarkIncrementalFaultSim contrasts the event-driven cone-restricted
// engine (the default behind Run/RunInto) with the full-pass reference on
// the same s13207 fault sample. The event path seeds one event at the
// fault site against cached fault-free values and touches only the fan-out
// cone, so it should run well over 3x faster than re-simulating every gate
// of every block.
func BenchmarkIncrementalFaultSim(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.SampleFaults(sim.FullFaultList(c), 100, 1)
	b.Run("event", func(b *testing.B) {
		b.ReportAllocs()
		sc := fs.NewScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.RunInto(faults[i%len(faults)], sc)
		}
	})
	b.Run("fullpass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs.RunReference(faults[i%len(faults)])
		}
	})
}

// BenchmarkFaultBatchSweep contrasts the fault-parallel batch engine with
// the per-fault event-driven engine on the 500-fault s13207 sweep that
// dominates the Table 2/3 experiments. One iteration is a 20-sweep
// campaign (schedule reused, as in a real multi-scheme, multi-session
// run), so even a -benchtime 1x CI run times a multi-millisecond window;
// ns/fault is the amortized per-fault simulation time the PR4 acceptance
// criterion tracks.
func BenchmarkFaultBatchSweep(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.SampleFaults(sim.FullFaultList(c), 500, 1)
	const sweepsPerIter = 20
	// Each sub-benchmark runs untimed warmup sweeps so a -benchtime 1x CI
	// run measures the steady state the multi-scheme experiments live in
	// (caches hot, branch predictors trained, CPU clocks ramped) rather
	// than first-touch costs.
	b.Run("batched", func(b *testing.B) {
		plan := sim.PlanBatches(c, faults, sim.BatchOptions{})
		bs := fs.NewBatchScratch(plan)
		sc := fs.NewScratch()
		sink := 0
		for w := 0; w < 100; w++ {
			for _, cb := range plan.Batches {
				fs.RunBatch(cb, bs)
				for k := range cb.Index {
					sink += fs.MaterializeBatch(bs, k, sc).DetectingPatterns
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < sweepsPerIter; s++ {
				for _, cb := range plan.Batches {
					fs.RunBatch(cb, bs)
					for k := range cb.Index {
						sink += fs.MaterializeBatch(bs, k, sc).DetectingPatterns
					}
				}
			}
		}
		b.StopTimer()
		if sink == 0 {
			b.Fatal("sweep detected nothing")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweepsPerIter*len(faults)), "ns/fault")
	})
	b.Run("event", func(b *testing.B) {
		sc := fs.NewScratch()
		sink := 0
		for w := 0; w < 10; w++ {
			for _, f := range faults {
				sink += fs.RunInto(f, sc).DetectingPatterns
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < sweepsPerIter; s++ {
				for _, f := range faults {
					sink += fs.RunInto(f, sc).DetectingPatterns
				}
			}
		}
		b.StopTimer()
		if sink == 0 {
			b.Fatal("sweep detected nothing")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweepsPerIter*len(faults)), "ns/fault")
	})
}

func BenchmarkLFSRStep(b *testing.B) {
	l := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

func BenchmarkMISRClock(b *testing.B) {
	m := lfsr.MustNewMISR(lfsr.MustPrimitivePoly(32))
	for i := 0; i < b.N; i++ {
		m.Clock(uint64(i))
	}
}

// BenchmarkVerdicts times the perfect-tester verdict step on s13207
// (two-step, 16 groups, 8 partitions, 128 patterns). single: Verdicts for
// one detected fault, the adapter that scans every cell for the failing
// ones. sweep: the production entry, CellVerdictsUpTo into one pooled
// Verdicts over the failing cells the simulator reports, for every
// detected fault of a 500-fault sample; it reports µs per detected fault,
// and allocs/op counts a whole sample.
func BenchmarkVerdicts(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	b.Run("single", func(b *testing.B) {
		cfg := scan.SingleChain(c.NumDFFs())
		prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
		blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
		fs := sim.NewFaultSim(c, blocks)
		eng, err := bist.NewEngine(cfg, bist.Plan{
			Scheme: partition.TwoStep{}, Groups: 16, Partitions: 8,
		}, 128)
		if err != nil {
			b.Fatal(err)
		}
		good := make([]*sim.Response, len(blocks))
		for i := range blocks {
			good[i] = fs.Good(i)
		}
		var detected *sim.Result
		for _, f := range sim.SampleFaults(sim.FullFaultList(c), 50, 1) {
			if r := fs.Run(f); r.Detected() {
				detected = r
				break
			}
		}
		if detected == nil {
			b.Fatal("no detected fault")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Verdicts(good, detected.Faulty, blocks)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		cb, err := core.NewCircuitBench(c, core.Options{
			Scheme: partition.TwoStep{}, Groups: 16, Partitions: 8, Patterns: 128,
		})
		if err != nil {
			b.Fatal(err)
		}
		art := cb.Artifacts()
		var detected []*sim.Result
		for _, f := range sim.SampleFaults(cb.Faults(), 500, 1) {
			if res := art.Sim.Run(f); res.Detected() {
				detected = append(detected, res)
			}
		}
		v := art.Engine.NewVerdicts()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range detected {
				if _, err := art.Engine.CellVerdictsUpTo(ctx, res.FailingCells, art.Good, res.Faulty, art.Blocks, v); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(detected)), "µs/fault")
	})
}

func BenchmarkIntervalSeedSearch(b *testing.B) {
	poly := lfsr.MustPrimitivePoly(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := partition.FindSeeds(poly, partition.AutoLenBits(638, 16), 638, 16, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBuild times bist.NewEngine, whose cost is the interval
// seed search, for the two-step plans of the end-to-end benchmark: one
// 638-cell s13207 chain in 16 groups, and SOC1 at TAM width 8, whose eight
// 578-cell meta chains share one search, in 32 groups.
func BenchmarkEngineBuild(b *testing.B) {
	chip, err := soc.SOC1()
	if err != nil {
		b.Fatal(err)
	}
	tam8, err := chip.MetaChains(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cfg    scan.Config
		groups int
	}{
		{"s13207", scan.SingleChain(benchgen.MustGenerate("s13207").NumDFFs()), 16},
		{"soc1-tam8", tam8, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan := bist.Plan{Scheme: partition.TwoStep{}, Groups: c.groups, Partitions: 8}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bist.NewEngine(c.cfg, plan, 128); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuperpositionPrune times the perfect-tester diagnosis step of
// a sweep, what the per-fault worker runs after the verdicts:
// DiagnoseRobust (intersection candidates plus superposition pruning) and
// CandidateCounts, over precomputed verdicts of the detected faults of
// the end-to-end benchmark's plans (two-step, 8 partitions, 128
// patterns). s13207: a 500-fault sample, 16 groups on one chain.
// soc1-tam8: 30 faults per core of SOC1 over a TAM of width 8, 32 groups
// per chain in per-chain verdict slots.
func BenchmarkSuperpositionPrune(b *testing.B) {
	o := core.Options{Scheme: partition.TwoStep{}, Groups: 16, Partitions: 8, Patterns: 128}
	b.Run("s13207", func(b *testing.B) {
		cb, err := core.NewCircuitBench(benchgen.MustGenerate("s13207"), o)
		if err != nil {
			b.Fatal(err)
		}
		art := cb.Artifacts()
		var verdicts []*bist.Verdicts
		for _, f := range sim.SampleFaults(cb.Faults(), 500, 1) {
			if res := art.Sim.Run(f); res.Detected() {
				verdicts = append(verdicts, art.Engine.Verdicts(art.Good, res.Faulty, art.Blocks))
			}
		}
		benchDiagnoseStep(b, art.Diag, verdicts, o)
	})
	b.Run("soc1-tam8", func(b *testing.B) {
		s, err := soc.Preset("soc1")
		if err != nil {
			b.Fatal(err)
		}
		o := o
		o.Groups, o.Chains = 32, 8
		sb, err := core.NewSOCBench(s, o)
		if err != nil {
			b.Fatal(err)
		}
		art := sb.Artifacts()
		good, blocks := art.Sim.Good(), art.Sim.Blocks()
		var verdicts []*bist.Verdicts
		for ci := range s.Cores {
			for _, f := range sim.SampleFaults(sb.CoreFaults(ci), 30, 1) {
				if res := art.Sim.Run(ci, f); res.Detected() {
					verdicts = append(verdicts, art.Engine.Verdicts(good, res.Faulty, blocks))
				}
			}
		}
		benchDiagnoseStep(b, art.Diag, verdicts, o)
	})
}

// benchDiagnoseStep runs DiagnoseRobust and CandidateCounts over every
// verdict set per iteration and reports ns per fault.
func benchDiagnoseStep(b *testing.B, diag *diagnosis.Diagnoser, verdicts []*bist.Verdicts, o core.Options) {
	counts := make([]int, o.Partitions)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, v := range verdicts {
			sink += diag.DiagnoseRobust(v, o.VoteThreshold).Pruned.Len()
			diag.CandidateCounts(v, counts)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("no candidates")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(verdicts)), "ns/fault")
}

// BenchmarkDiagnoserBuild times diagnosis.FromEngine, the per-plan build
// of the Diagnoser's cell tables, and reports its B/op — the Diagnoser is
// held for the life of every cached artifact set. s13207: one 638-cell
// chain in 16 groups; soc1: SOC1's single meta chain; soc1-tam8: its
// eight meta chains in per-chain verdict slots, 32 groups each; all with
// the two-step scheme and 8 partitions.
func BenchmarkDiagnoserBuild(b *testing.B) {
	chip, err := soc.SOC1()
	if err != nil {
		b.Fatal(err)
	}
	tam8, err := chip.MetaChains(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cfg    scan.Config
		groups int
	}{
		{"s13207", scan.SingleChain(benchgen.MustGenerate("s13207").NumDFFs()), 16},
		{"soc1", chip.SingleMetaChain(), 32},
		{"soc1-tam8", tam8, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, err := bist.NewEngine(c.cfg, bist.Plan{Scheme: partition.TwoStep{}, Groups: c.groups, Partitions: 8}, 128)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := diagnosis.FromEngine(eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoisyDiagnosis times the per-fault step of noisy SOC diagnosis
// under the noisy SOC benchmark workload's tester (SOC1, two-step, 32
// groups, 8 partitions, 128 patterns; intermittent 0.5, 2% flips, 2%
// aborts, 4 retries): NoisyCellVerdictsInto one pooled Verdicts, as a
// sweep worker runs it, then Diagnose, DiagnoseRobust at vote threshold 2
// and CandidateCounts over precomputed faulty responses of a 30-fault
// sample per core.
func BenchmarkNoisyDiagnosis(b *testing.B) {
	s, err := soc.Preset("soc1")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		Scheme: partition.TwoStep{}, Groups: 32, Partitions: 8, Patterns: 128,
		Noise:         noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: 7},
		Retry:         bist.RetryPolicy{MaxRetries: 4},
		VoteThreshold: 2,
	}
	sb, err := core.NewSOCBench(s, opts)
	if err != nil {
		b.Fatal(err)
	}
	art := sb.Artifacts()
	good, blocks := art.Sim.Good(), art.Sim.Blocks()
	var cases []*soc.Result
	for ci := range s.Cores {
		for _, f := range sim.SampleFaults(sb.CoreFaults(ci), 30, 1) {
			if res := art.Sim.Run(ci, f); res.Detected() {
				cases = append(cases, res)
			}
		}
	}
	counts := make([]int, opts.Partitions)
	v := art.Engine.NewVerdicts()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			m := opts.Noise.Fork(uint64(int64(c.Fault.Net)+1), uint64(int64(c.Fault.Gate)+1), uint64(int64(c.Fault.Pin)+1), uint64(c.Fault.Stuck))
			art.Engine.NoisyCellVerdictsInto(c.FailingCells, good, c.Faulty, blocks, m, opts.Retry, v)
			sink += art.Diag.Diagnose(v).Pruned.Len()
			sink += art.Diag.DiagnoseRobust(v, opts.VoteThreshold).Pruned.Len()
			art.Diag.CandidateCounts(v, counts)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if sink == 0 {
		b.Fatal("no candidates")
	}
	faults := float64(b.N * len(cases))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/faults, "ns/fault")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/faults, "allocs/fault")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/faults, "B/fault")
}

// BenchmarkWarmSOCSweep times the noisy SOC operation of the end-to-end
// benchmark: over a warm artifact cache, look the SOC1 bench up and sweep
// 30 faults in each of its six cores with two workers behind the noisy
// tester. The sweeps' per-worker state is pooled on the artifact set, so
// a warm operation allocates little beyond what its diagnoses return.
func BenchmarkWarmSOCSweep(b *testing.B) {
	s, err := soc.Preset("soc1")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		Scheme: partition.TwoStep{}, Groups: 32, Partitions: 8, Patterns: 128, Workers: 2,
		Noise:         noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: 7},
		Retry:         bist.RetryPolicy{MaxRetries: 4},
		VoteThreshold: 2,
		Cache:         pipeline.NewCache(),
	}
	sb, err := core.NewSOCBench(s, opts)
	if err != nil {
		b.Fatal(err)
	}
	samples := make([][]sim.Fault, s.NumCores())
	faults := 0
	for ci := range samples {
		samples[ci] = sim.SampleFaults(sb.CoreFaults(ci), 30, int64(ci)+1)
		faults += len(samples[ci])
	}
	op := func() {
		sb, err := core.NewSOCBench(s, opts)
		if err != nil {
			b.Fatal(err)
		}
		for ci, sample := range samples {
			if _, err := sb.RunCoreContext(context.Background(), ci, sample); err != nil {
				b.Fatal(err)
			}
		}
	}
	op() // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*faults), "ns/fault")
}

// BenchmarkPlanBatchesCold times the cold plan build of the end-to-end
// benchmark's cold operation: list-order packing of a 500-fault s13207
// sample on a circuit whose cones are not memoized yet, so every cone is
// walked. Each iteration generates a fresh circuit outside the timer.
func BenchmarkPlanBatchesCold(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	faults := sim.SampleFaults(sim.CollapseFaults(c, sim.FullFaultList(c)), 500, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchgen.MustGenerate("s13207")
		b.StartTimer()
		if p := sim.PlanBatches(c, faults, sim.BatchOptions{ScanOrder: true}); p.NumFaults() != len(faults) {
			b.Fatal("plan does not cover the sample")
		}
	}
}

// BenchmarkCollapseFaults times the production collapsed fault list of
// s13207, built straight from the netlist (sim.CollapsedFaults).
func BenchmarkCollapseFaults(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(sim.CollapsedFaults(c)) == 0 {
			b.Fatal("empty collapsed list")
		}
	}
}

// BenchmarkCircuitSetupCold times the cold set-up of the end-to-end
// benchmark's cold operation after generation: NewCircuitBench on s13207
// over an empty store directory (pattern expansion, fault-free
// simulation and the engine build beside it, the store write), then the
// collapsed fault list. Each iteration gets a fresh directory, so nothing
// is read back.
func BenchmarkCircuitSetupCold(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		cb, err := core.NewCircuitBench(c, core.Options{
			Scheme: partition.TwoStep{}, Groups: 16, Partitions: 8, Patterns: 128, CacheDir: dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(cb.Faults()) == 0 {
			b.Fatal("empty collapsed list")
		}
	}
}

func BenchmarkCircuitGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchgen.MustGenerate("s13207")
	}
}

func BenchmarkCore13207EndToEnd(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	for i := 0; i < b.N; i++ {
		cb, err := core.NewCircuitBench(c, core.Options{
			Scheme: partition.TwoStep{}, Groups: 16, Partitions: 8, Patterns: 128,
		})
		if err != nil {
			b.Fatal(err)
		}
		faults := sim.SampleFaults(cb.Faults(), 30, 1)
		cb.Run(faults)
	}
}

// --- Extension subsystems -------------------------------------------------

func BenchmarkPODEM(b *testing.B) {
	c := benchgen.MustGenerate("s5378")
	g := atpg.New(c)
	faults := sim.SampleFaults(sim.CollapseFaults(c, sim.FullFaultList(c)), 50, 1)
	b.ResetTimer()
	detected := 0
	for i := 0; i < b.N; i++ {
		_, outcome := g.Generate(faults[i%len(faults)])
		if outcome == atpg.Detected {
			detected++
		}
	}
	b.ReportMetric(float64(detected)/float64(b.N), "detect-rate")
}

func BenchmarkAdaptiveDiagnosis(b *testing.B) {
	c := benchgen.MustGenerate("s5378")
	cfg := scan.SingleChain(c.NumDFFs())
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	eng, err := bist.NewEngine(cfg, bist.Plan{
		Scheme: partition.TwoStep{}, Groups: 8, Partitions: 1,
	}, 128)
	if err != nil {
		b.Fatal(err)
	}
	good := make([]*sim.Response, len(blocks))
	for i := range blocks {
		good[i] = fs.Good(i)
	}
	var syn []uint64
	for _, f := range sim.SampleFaults(sim.FullFaultList(c), 50, 1) {
		if r := fs.Run(f); r.Detected() {
			syn = eng.CellSyndromes(good, r.Faulty, blocks)
			break
		}
	}
	if syn == nil {
		b.Fatal("no detected fault")
	}
	b.ResetTimer()
	sessions := 0
	for i := 0; i < b.N; i++ {
		o := adaptive.NewSyndromeOracle(syn)
		adaptive.Diagnose(o, c.NumDFFs())
		sessions = o.Sessions()
	}
	b.ReportMetric(float64(sessions), "sessions")
}

func BenchmarkDictionaryBuild(b *testing.B) {
	c := benchgen.MustGenerate("s953")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dictionary.Build(fs, faults)
	}
}

func BenchmarkDictionaryLookup(b *testing.B) {
	c := benchgen.MustGenerate("s5378")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	d := dictionary.Build(fs, faults)
	query := d.Entries()[len(d.Entries())/2].Cells
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(query, 10)
	}
}

func BenchmarkVectorDiagnosis(b *testing.B) {
	c := benchgen.MustGenerate("s953")
	cfg := scan.SingleChain(c.NumDFFs())
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	eng, err := vectors.NewEngine(cfg, vectors.Plan{
		Scheme: partition.TwoStep{}, Groups: 8, Partitions: 8,
	}, 128)
	if err != nil {
		b.Fatal(err)
	}
	good := make([]*sim.Response, len(blocks))
	for i := range blocks {
		good[i] = fs.Good(i)
	}
	var res *sim.Result
	for _, f := range sim.SampleFaults(sim.FullFaultList(c), 50, 1) {
		if r := fs.Run(f); r.Detected() {
			res = r
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Diagnose(good, res.Faulty, blocks)
	}
}

func BenchmarkCoverageMeasurement(b *testing.B) {
	c := benchgen.MustGenerate("s953")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.SampleFaults(sim.CollapseFaults(c, sim.FullFaultList(c)), 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MeasureCoverage(fs, faults)
	}
}

// BenchmarkAblationScanStitching shows the structural stitching recovering
// two-step's advantage when the netlist order is scrambled: diagnose with
// (a) the scrambled order as-is and (b) the structurally recovered order.
func BenchmarkAblationScanStitching(b *testing.B) {
	c := scanbist.MustGenerate("s5378")
	scrambled := scanbist.RandomScanOrder(c.NumDFFs(), 3)
	structural := scan.StructuralOrder(c)
	for _, tc := range []struct {
		name  string
		order []int
	}{{"scrambled", scrambled}, {"restitched", structural}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := scanbist.Options{
				Scheme: scanbist.TwoStep(), Groups: 8, Partitions: 8, Patterns: 128,
				ScanOrder: tc.order,
			}
			var study *scanbist.Study
			for i := 0; i < b.N; i++ {
				study = runStudy(b, opts)
			}
			b.ReportMetric(study.Full.Value(), "DR-full")
		})
	}
}

func BenchmarkChainDiagnosis(b *testing.B) {
	c := benchgen.MustGenerate("s953")
	order := scan.NaturalOrder(c.NumDFFs())
	truth := &chaindiag.ChainFault{Position: 12, Stuck: 1}
	dut, err := chaindiag.NewDevice(c, order, truth)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := chaindiag.Diagnose(c, order, dut.LoadCaptureObserve); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCOAP(b *testing.B) {
	c := benchgen.MustGenerate("s13207")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testability.Compute(c)
	}
}

func BenchmarkReseedSolve(b *testing.B) {
	c := benchgen.MustGenerate("s5378")
	solver, err := reseed.NewSolver(lfsr.MustPrimitivePoly(32), c.NumDFFs()+c.NumInputs())
	if err != nil {
		b.Fatal(err)
	}
	gen := atpg.New(c)
	var pos []int
	var vals []bool
	for _, f := range sim.SampleFaults(sim.FullFaultList(c), 40, 1) {
		if test, outcome := gen.Generate(f); outcome == atpg.Detected {
			pos, vals = test.Care()
			break
		}
	}
	if pos == nil {
		b.Fatal("no cube")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.SeedFor(pos, vals)
	}
}

func BenchmarkPhaseShifter(b *testing.B) {
	l := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	ps, err := lfsr.NewPhaseShifter(l, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Step()
	}
}

func BenchmarkTransitionFaultSim(b *testing.B) {
	c := benchgen.MustGenerate("s5378")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	faults := sim.TransitionFaultList(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.RunTransition(faults[i%len(faults)])
	}
}

// --- Pipeline: artifact cache and pooled fault loop ----------------------

// BenchmarkArtifactCache contrasts the cold artifact build (pattern
// expansion, whole-machine fault-free simulation, partition tables, golden
// signatures) with a content-keyed cache hit on an s9234-class circuit. The
// hit path skips the golden re-simulation entirely, so it should run orders
// of magnitude faster and nearly allocation-free.
func BenchmarkArtifactCache(b *testing.B) {
	c := benchgen.MustGenerate("s9234")
	opts := scanbist.Options{Scheme: scanbist.TwoStep(), Groups: 16, Partitions: 8, Patterns: 128}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scanbist.NewCircuitBench(c, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		opts := opts
		opts.Cache = scanbist.NewArtifactCache()
		if _, err := scanbist.NewCircuitBench(c, opts); err != nil {
			b.Fatal(err) // cold build warms the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scanbist.NewCircuitBench(c, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskStoreWarmStart contrasts rebuilding the heaviest persisted
// artifact — the compiled batch plan over s13207's collapsed fault list,
// including the cone walks scheduling performs on a cold circuit — with a
// warm start off the persistent artifact tier: a fresh memory cache over a
// populated directory, so the plan and cone snapshot are read, decoded,
// and exhaustively validated from disk. Each iteration uses a freshly
// generated circuit (no memoized cones) to model a true process cold
// start; the disk hit skips the fan-out walks and lane packing, so it
// should be at least an order of magnitude cheaper.
func BenchmarkDiskStoreWarmStart(b *testing.B) {
	dir := b.TempDir()
	seedCircuit := benchgen.MustGenerate("s13207")
	seedFaults := sim.CollapseFaults(seedCircuit, sim.FullFaultList(seedCircuit))
	seed := scanbist.NewArtifactCache()
	if err := seed.AttachDir(dir); err != nil {
		b.Fatal(err)
	}
	seed.Plan(seedCircuit, seedFaults, sim.BatchOptions{}) // populates the disk tier

	run := func(b *testing.B, cacheDir string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := benchgen.MustGenerate("s13207") // fresh process: no memoized cones
			faults := sim.CollapseFaults(c, sim.FullFaultList(c))
			cache := scanbist.NewArtifactCache()
			if cacheDir != "" {
				if err := cache.AttachDir(cacheDir); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if p := cache.Plan(c, faults, sim.BatchOptions{}); p.NumFaults() != len(faults) {
				b.Fatalf("plan covers %d of %d faults", p.NumFaults(), len(faults))
			}
		}
	}
	b.Run("rebuild", func(b *testing.B) { run(b, "") })
	b.Run("diskhit", func(b *testing.B) { run(b, dir) })
}

// BenchmarkPooledFaultLoop contrasts the reference per-fault DiagnoseFault
// path (allocating verdicts, responses, and per-prefix candidate bitsets
// every call) with the pooled Run path (per-worker reusable scratch,
// in-place verdicts, histogram candidate counts). Both run serially so the
// allocs/op column isolates pooling, not parallelism.
func BenchmarkPooledFaultLoop(b *testing.B) {
	c := benchgen.MustGenerate("s9234")
	cb, err := scanbist.NewCircuitBench(c, scanbist.Options{
		Scheme: scanbist.TwoStep(), Groups: 16, Partitions: 8, Patterns: 128, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	faults := scanbist.SampleFaults(cb.Faults(), 32, 1)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				cb.DiagnoseFault(f)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb.Run(faults)
		}
	})
}

func BenchmarkFullModelSession(b *testing.B) {
	c := benchgen.MustGenerate("s298")
	model, err := bist.NewFullModel(c, scan.NaturalOrder(c.NumDFFs()),
		partition.RandomSelection{}, 4, lfsr.MustPrimitivePoly(32), 0xACE1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.SessionSignature(nil, 8, 0, i%4); err != nil {
			b.Fatal(err)
		}
	}
}

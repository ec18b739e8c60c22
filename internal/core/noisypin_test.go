package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/diagnosis"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/soc"
)

// pinnedNoisyDiagnosis is the sha256 of every per-fault output of the
// noisy verdict → candidate step (see noisyDigest) over a fixed fault
// sample. The step's implementation may change; these values may not.
var pinnedNoisyDiagnosis = []struct{ name, digest string }{
	{"socmini", "94d597787185c4ecbf4bd6f2081444bbd753e4617aba6c533eb886529a65b60f"},
	{"s953x2", "ddd31f8a29d14f5b5d0302630aa50bce9bfe982592e449a71d9a86474e37e816"},
}

// pinnedNoiseOpts is the unreliable tester of the noisy SOC benchmark
// workload: half the patterns excite the fault, 2% flips, 2% aborts, four
// retries and a vote threshold of 2.
func pinnedNoiseOpts(groups, chains int) Options {
	return Options{
		Scheme:        partition.TwoStep{},
		Groups:        groups,
		Partitions:    8,
		Patterns:      128,
		Chains:        chains,
		Noise:         noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: 0x5eed},
		Retry:         bist.RetryPolicy{MaxRetries: 4},
		VoteThreshold: 2,
	}
}

// noisyDigest feeds one fault's noisy diagnosis into h: the NoisyVerdicts
// tables and reliability counters, the Diagnose and DiagnoseRobust (vote
// thresholds 1 and 2) sets, CandidateCounts, and the deterministic
// VerdictsUpTo verdicts with their Diagnose sets.
func noisyDigest(t *testing.T, h hash.Hash, o Options, eng *bist.Engine, diag *diagnosis.Diagnoser, good, faulty []*sim.Response, blocks []*sim.Block, f sim.Fault) {
	put := func(xs ...uint64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	putBools := func(rows [][]bool) {
		put(uint64(len(rows)))
		for _, row := range rows {
			put(uint64(len(row)))
			for _, x := range row {
				if x {
					put(1)
				} else {
					put(0)
				}
			}
		}
	}
	putSigs := func(rows [][]uint64) {
		put(uint64(len(rows)))
		for _, row := range rows {
			put(uint64(len(row)))
			put(row...)
		}
	}
	putSet := func(s *bitset.Set) {
		elems := s.Elems()
		put(uint64(len(elems)))
		for _, c := range elems {
			put(uint64(c))
		}
	}
	putResult := func(r *diagnosis.Result) {
		putSet(r.Candidates)
		putSet(r.Pruned)
		putSet(r.Confirmed)
	}

	m := o.Noise.Fork(uint64(int64(f.Net)+1), uint64(int64(f.Gate)+1), uint64(int64(f.Pin)+1), uint64(f.Stuck))
	v, rel := eng.NoisyVerdicts(good, faulty, blocks, m, o.Retry)
	putBools(v.Fail)
	putBools(v.Unknown)
	putSigs(v.ErrSig)
	put(uint64(rel.Sessions), uint64(rel.Executions), uint64(rel.Aborted),
		uint64(rel.Completed), uint64(rel.Unknown), uint64(rel.Disagreed))
	putResult(diag.Diagnose(v))
	putResult(diag.DiagnoseRobust(v, 1))
	putResult(diag.DiagnoseRobust(v, 2))
	counts := make([]int, len(v.Fail)+2)
	diag.CandidateCounts(v, counts)
	for _, c := range counts {
		put(uint64(c))
	}

	det := eng.NewVerdicts()
	if _, err := eng.VerdictsUpTo(context.Background(), good, faulty, blocks, det); err != nil {
		t.Fatal(err)
	}
	putBools(det.Fail)
	putSigs(det.ErrSig)
	putResult(diag.Diagnose(det))
}

// TestNoisyDiagnosisPinned pins the noisy per-fault diagnosis outputs bit
// for bit on the socmini SOC (every core) and on s953 scanned as two
// chains with per-chain verdict slots.
func TestNoisyDiagnosisPinned(t *testing.T) {
	digests := map[string]string{}

	s, err := soc.Preset("socmini")
	if err != nil {
		t.Fatal(err)
	}
	o := pinnedNoiseOpts(8, 1)
	sb, err := NewSOCBench(s, o)
	if err != nil {
		t.Fatal(err)
	}
	art := sb.Artifacts()
	h := sha256.New()
	faults := 0
	for ci := range s.Cores {
		for _, f := range sim.SampleFaults(sb.CoreFaults(ci), 30, 3) {
			res := art.Sim.Run(ci, f)
			if !res.Detected() {
				continue
			}
			noisyDigest(t, h, o, art.Engine, art.Diag, art.Sim.Good(), res.Faulty, art.Sim.Blocks(), f)
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("socmini: no detected fault in the sample")
	}
	t.Logf("socmini: %d detected faults", faults)
	digests["socmini"] = hex.EncodeToString(h.Sum(nil))

	o = pinnedNoiseOpts(4, 2)
	cb, err := NewCircuitBench(benchgen.MustGenerate("s953"), o)
	if err != nil {
		t.Fatal(err)
	}
	ca := cb.Artifacts()
	if !ca.Engine.PerChainVerdicts() {
		t.Fatal("s953x2: verdict slots are not per chain")
	}
	h = sha256.New()
	faults = 0
	for _, f := range sim.SampleFaults(cb.Faults(), 80, 3) {
		res := ca.Sim.Run(f)
		if !res.Detected() {
			continue
		}
		noisyDigest(t, h, o, ca.Engine, ca.Diag, ca.Good, res.Faulty, ca.Blocks, f)
		faults++
	}
	if faults == 0 {
		t.Fatal("s953x2: no detected fault in the sample")
	}
	t.Logf("s953x2: %d detected faults", faults)
	digests["s953x2"] = hex.EncodeToString(h.Sum(nil))

	for _, pin := range pinnedNoisyDiagnosis {
		if got := digests[pin.name]; got != pin.digest {
			t.Errorf("%s: noisy diagnosis digest %s, pinned %s", pin.name, got, pin.digest)
		}
	}
}

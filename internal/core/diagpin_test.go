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

// pinnedDiagnosis is the sha256 of every per-fault diagnosis output (see
// diagDigest) of the production sweeps over fixed fault samples. The
// diagnosis step's implementation may change; these values may not.
var pinnedDiagnosis = []struct{ name, digest string }{
	{"s13207", "a33e3729b2c920d1d61c33d43aa0b9af64c3390b9d18ad9af14b8f786caa607b"},
	{"s13207-cut3", "9dc2e22f3cc8e033a3f3b5a3d577580f5821b1a45c1a14e11925e225c0d5d5aa"},
	{"soc1-tam1", "e1bf36b1b285a654d85a0a521337bfa7befac62515d9d41536be5e320969d815"},
	{"soc1-tam1-noisy", "52ed39586c967d45bd88808bf1685ddf07c95a6c5f970175151e02e9743b547c"},
	{"soc1-tam8", "6c2f46bc70b001dbc576d51516c8da5010bce4187e91a462342802b231125b36"},
	{"soc1-tam8-noisy", "ed1c9cbb0ea818f0f31742a6c215c08bfa3e5adbd470fadd7f73844ad5eec170"},
}

// diagDigest feeds one fault's diagnosis into h: its detection flag and
// completeness, the Candidates, Pruned and Confirmed sets of the result
// and, under noise, of the baseline, and CandidatesByPartition.
func diagDigest(h hash.Hash, fd *FaultDiagnosis) {
	put := func(xs ...uint64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
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
		if r == nil {
			put(0)
			return
		}
		put(1)
		putSet(r.Candidates)
		putSet(r.Pruned)
		putSet(r.Confirmed)
	}
	detected := uint64(0)
	if fd.Detected {
		detected = 1
	}
	put(detected, uint64(fd.Completeness.Observed), uint64(fd.Completeness.Scheduled))
	putResult(fd.Result)
	putResult(fd.Baseline)
	put(uint64(len(fd.CandidatesByPartition)))
	for _, c := range fd.CandidatesByPartition {
		put(uint64(c))
	}
}

// pinnedDiagOpts is the end-to-end benchmark's plan: two-step, 8
// partitions of the given group count, 128 patterns, over the given
// number of chains; noisy selects the noisy SOC workload's tester with
// a vote threshold of 2.
func pinnedDiagOpts(groups, chains int, noisy bool) Options {
	o := Options{Scheme: partition.TwoStep{}, Groups: groups, Partitions: 8, Patterns: 128, Chains: chains}
	if noisy {
		o.Noise = noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: 7}
		o.Retry = bist.RetryPolicy{MaxRetries: 4}
		o.VoteThreshold = 2
	}
	return o
}

// TestDiagnosisPinned pins the per-fault diagnosis outputs bit for bit:
// the s13207 500-fault sample of the cold scandiag benchmark (16 groups
// × 8 partitions), the same sample cut by a deadline after 3 observed
// partitions, and SOC1 over one meta chain and over a TAM of width 8
// (per-chain verdict slots), each with a perfect and a noisy tester.
func TestDiagnosisPinned(t *testing.T) {
	digests := map[string]string{}

	o := pinnedDiagOpts(16, 1, false)
	cb, err := NewCircuitBench(benchgen.MustGenerate("s13207"), o)
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.SampleFaults(cb.Faults(), 500, 1)
	h := sha256.New()
	cb.RunObserved(faults, func(fd *FaultDiagnosis) { diagDigest(h, fd) })
	digests["s13207"] = hex.EncodeToString(h.Sum(nil))

	h = sha256.New()
	cut := 0
	for _, f := range faults {
		// VerdictsUpTo polls ctx once per partition; three polls cut the
		// run after three observed partitions.
		fd, err := cb.DiagnoseFaultContext(newCountdown(3), f)
		if fd.Detected {
			if err == nil || fd.Completeness.Observed != 3 {
				t.Fatalf("s13207-cut3: %v observed %d partitions, err %v", f, fd.Completeness.Observed, err)
			}
			cut++
		}
		diagDigest(h, fd)
	}
	if cut == 0 {
		t.Fatal("s13207-cut3: no detected fault in the sample")
	}
	digests["s13207-cut3"] = hex.EncodeToString(h.Sum(nil))

	s, err := soc.Preset("soc1")
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
		sb, err := NewSOCBench(s, pinnedDiagOpts(32, c.chains, c.noisy))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sb.Engine().PerChainVerdicts(), c.chains > 1; got != want {
			t.Fatalf("%s: per-chain verdict slots %v, want %v", c.name, got, want)
		}
		h := sha256.New()
		for ci := range s.Cores {
			faults := sim.SampleFaults(sb.CoreFaults(ci), 30, 1)
			if _, err := sb.RunCoreObservedContext(context.Background(), ci, faults, func(fd *FaultDiagnosis) { diagDigest(h, fd) }); err != nil {
				t.Fatal(err)
			}
		}
		digests[c.name] = hex.EncodeToString(h.Sum(nil))
	}

	for _, pin := range pinnedDiagnosis {
		if got := digests[pin.name]; got != pin.digest {
			t.Errorf("%s: diagnosis digest %s, pinned %s", pin.name, got, pin.digest)
		}
	}
}

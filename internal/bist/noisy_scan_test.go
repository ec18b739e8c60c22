package bist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/sim"
)

// noisyVerdictsScan is the reference the noisy verdict table is checked
// against: every execution of every session scans every cell's words bit
// by bit and draws each coin through the stateless Model methods, with no
// per-session coin source, integer threshold or grouping by pattern.
func noisyVerdictsScan(e *Engine, good, faulty []*sim.Response, blocks []*sim.Block, m noise.Model, rp RetryPolicy) (*Verdicts, *Reliability) {
	v := e.NewVerdicts()
	v.Unknown = rows(make([]bool, e.plan.Partitions*e.vgroups), e.vgroups)
	rel := &Reliability{Sessions: e.plan.Partitions * e.vgroups}
	totalClocks := 0
	for _, b := range blocks {
		totalClocks += b.N * e.shiftsL
	}
	for t := 0; t < e.plan.Partitions; t++ {
		for slot := 0; slot < e.vgroups; slot++ {
			var fails []bool
			var sigs []uint64
			for a := 0; a < rp.Runs(); a++ {
				rel.Executions++
				if m.Aborts(t, slot, a) {
					rel.Aborted++
					continue
				}
				var sig uint64
				active := false
				patternBase := 0
				for bi, b := range blocks {
					for cell := range good[bi].Next {
						chain, pos := e.chainOf[cell], e.posOf[cell]
						if e.verdictIndex(chain, e.parts[chain][t].GroupOf[pos]) != slot {
							continue
						}
						for j := 0; j < b.N; j++ {
							p := patternBase + j
							if (good[bi].Next[cell]^faulty[bi].Next[cell])>>j&1 == 0 || !m.ActiveAt(t, slot, a, p) {
								continue
							}
							sig ^= e.xp[totalClocks-1-(p*e.shiftsL+pos)+chain]
							active = true
						}
					}
					patternBase += b.N
				}
				fail := sig != 0
				if e.plan.Ideal {
					fail = active
				}
				if m.Flips(t, slot, a) {
					fail, sig = !fail, 0
					if fail {
						sig = m.Corrupt(t, slot, a)
					}
				}
				fails = append(fails, fail)
				sigs = append(sigs, sig)
				rel.Completed++
			}
			nFail := 0
			count := make(map[uint64]int)
			for i, f := range fails {
				if f {
					nFail++
					count[sigs[i]]++
				}
			}
			switch {
			case 2*nFail > len(fails):
				// The most frequent failing signature; of equally frequent
				// ones, the first reported.
				best := -1
				for i, f := range fails {
					if f && (best < 0 || count[sigs[i]] > count[sigs[best]]) {
						best = i
					}
				}
				v.Fail[t][slot], v.ErrSig[t][slot] = true, sigs[best]
				rel.Disagreed += len(fails) - nFail
			case nFail == 0 && len(fails) > 0:
			default:
				v.Unknown[t][slot] = true
				rel.Unknown++
				rel.Disagreed += nFail
			}
		}
	}
	return v, rel
}

// checkNoisyVerdictsMatchScan compares the noisy verdicts of each fault of
// fx under m and rp with noisyVerdictsScan: through NoisyVerdicts, and
// through NoisyCellVerdictsInto over the failing cells and over a strict
// superset of them, each into a dirty buffer.
func checkNoisyVerdictsMatchScan(t *testing.T, label string, fx *scanFixture, faults []sim.Fault, m noise.Model, rp RetryPolicy, rng *rand.Rand) {
	t.Helper()
	e := fx.e
	n := e.Config().NumCells
	for _, f := range faults {
		faulty := fx.fs.Faulty(f)
		name := fmt.Sprintf("%s %+v retries=%d %s", label, m, rp.MaxRetries, f.Describe(fx.fs.Circuit()))
		want, wantRel := noisyVerdictsScan(e, fx.good, faulty, fx.blocks, m, rp)
		check := func(how string, got *Verdicts, rel *Reliability) {
			t.Helper()
			if !reflect.DeepEqual(got, want) || *rel != *wantRel {
				t.Fatalf("%s %s: noisy verdicts differ from the reference scan\ngot  %v %x %v %s\nwant %v %x %v %s",
					name, how, got.Fail, got.ErrSig, got.Unknown, rel, want.Fail, want.ErrSig, want.Unknown, wantRel)
			}
		}
		got, rel := e.NoisyVerdicts(fx.good, faulty, fx.blocks, m, rp)
		check("NoisyVerdicts", got, rel)

		failing := bitset.New(n)
		for bi, b := range fx.blocks {
			for cell := range n {
				if (fx.good[bi].Next[cell]^faulty[bi].Next[cell])&b.Mask() != 0 {
					failing.Add(cell)
				}
			}
		}
		superset := failing.Clone()
		for superset.Len() == failing.Len() {
			superset.Add(rng.Intn(n))
		}
		for _, cs := range []struct {
			how   string
			cells *bitset.Set
		}{{"failing cells", failing}, {"superset", superset}} {
			v := dirtyVerdicts(e, rng)
			rel := new(Reliability)
			e.NoisyCellVerdictsInto(cs.cells, fx.good, faulty, fx.blocks, m, rp, v, rel)
			check("NoisyCellVerdictsInto over "+cs.how, v, rel)
		}
	}
}

// noisyScanProbs are the activation, flip and abort probabilities the
// comparison crosses: never, at the edges of the integer threshold, in
// between, and always.
var (
	scanIntermittent = []float64{0, 1e-300, 0.5, math.Nextafter(1, 0), 1}
	scanFlipAbort    = []float64{0, 0.1, 1}
)

// TestNoisyVerdictsMatchScan pins the per-session table and its
// branch-free coin loop to the bit-by-bit reference scan across the MISR
// and Ideal modes, shared and per-chain compactors, 1–3 chains of unequal
// length, 100 patterns (a partial second block), every crossing of the
// edge probabilities and 0–4 retries.
func TestNoisyVerdictsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, chains := range []int{1, 2, 3} {
		for _, ideal := range []bool{false, true} {
			for _, shared := range []bool{false, true} {
				if shared && chains == 1 {
					continue
				}
				plan := Plan{Scheme: partition.TwoStep{}, Groups: 3, Partitions: 4, Ideal: ideal, SharedCompactor: shared}
				label := fmt.Sprintf("chains=%d ideal=%v shared=%v", chains, ideal, shared)
				fx, err := newScanFixture(chains, 100, plan, int64(chains))
				if err != nil {
					t.Fatal(err)
				}
				i := 0
				for _, q := range scanIntermittent {
					for _, flip := range scanFlipAbort {
						for _, abort := range scanFlipAbort {
							m := noise.Model{Intermittent: q, Flip: flip, Abort: abort, Seed: rng.Uint64()}
							faults := []sim.Fault{fx.faults[i%len(fx.faults)], fx.faults[(i+1)%len(fx.faults)]}
							checkNoisyVerdictsMatchScan(t, label, fx, faults, m, RetryPolicy{MaxRetries: i % 5}, rng)
							i++
						}
					}
				}
			}
		}
	}
}

// FuzzNoisyVerdictsMatchScan fuzzes the same comparison over the chain
// count, pattern count, compaction mode, compactor sharing, the three
// probabilities, the retry count and the seed.
func FuzzNoisyVerdictsMatchScan(f *testing.F) {
	f.Add(uint8(1), uint8(100), false, false, 0.5, 0.02, 0.02, uint8(4), int64(1))
	f.Add(uint8(2), uint8(70), true, false, 1e-300, 1.0, 0.0, uint8(0), int64(2))
	f.Add(uint8(3), uint8(129), false, true, math.Nextafter(1, 0), 0.0, 1.0, uint8(2), int64(3))
	f.Add(uint8(3), uint8(7), true, true, 0.0, 0.1, 0.1, uint8(3), int64(4))
	f.Add(uint8(2), uint8(64), false, false, 1.0, 0.5, 0.5, uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, chains, patterns uint8, ideal, shared bool, q, flip, abort float64, retries uint8, seed int64) {
		plan := Plan{Scheme: partition.TwoStep{}, Groups: 3, Partitions: 3, Ideal: ideal, SharedCompactor: shared}
		fx, err := newScanFixture(1+int(chains)%3, 1+int(patterns)%150, plan, seed)
		if err != nil {
			t.Skip(err) // a group count the shortest chain cannot hold
		}
		m := noise.Model{Intermittent: q, Flip: flip, Abort: abort, Seed: uint64(seed)}
		rng := rand.New(rand.NewSource(seed))
		checkNoisyVerdictsMatchScan(t, fmt.Sprintf("seed=%d", seed), fx, fx.faults[:4], m, RetryPolicy{MaxRetries: int(retries) % 5}, rng)
	})
}

// TestNoisyCellVerdictsIntoAllocs: in the steady state the noisy verdict
// step allocates nothing — the table comes from the engine's pool, the
// Unknown rows are the buffer's own and the Reliability is the caller's.
func TestNoisyCellVerdictsIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its puts under -race")
	}
	plan := Plan{Scheme: partition.TwoStep{}, Groups: 3, Partitions: 4}
	fx, err := newScanFixture(2, 100, plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := noise.Model{Intermittent: 0.5, Flip: 0.02, Abort: 0.02, Seed: 9}
	rp := RetryPolicy{MaxRetries: 4}
	res := fx.fs.Run(fx.faults[0])
	if !res.Detected() {
		t.Fatal("fixture fault is undetected")
	}
	v, rel := fx.e.NewVerdicts(), new(Reliability)
	step := func() { fx.e.NoisyCellVerdictsInto(res.FailingCells, fx.good, res.Faulty, fx.blocks, m, rp, v, rel) }
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("NoisyCellVerdictsInto allocates %v times per call, want 0", n)
	}
}

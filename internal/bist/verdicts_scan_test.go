package bist

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitset"
	"repro/internal/lfsr"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

// verdictsScan is the reference the cell-driven fold is checked against:
// every cell of every block is scanned, and each error bit's syndrome is
// XORed into its slot in every partition on its own.
func verdictsScan(e *Engine, good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) {
	for t := range v.Fail {
		clear(v.Fail[t])
		clear(v.ErrSig[t])
	}
	v.Unknown = nil
	totalClocks := 0
	for _, b := range blocks {
		totalClocks += b.N * e.shiftsL
	}
	patternBase := 0
	for bi, b := range blocks {
		mask := b.Mask()
		g, f := good[bi], faulty[bi]
		for cell := range g.Next {
			diff := (g.Next[cell] ^ f.Next[cell]) & mask
			if diff == 0 {
				continue
			}
			chain := e.chainOf[cell]
			pos := e.posOf[cell]
			for d := diff; d != 0; d &= d - 1 {
				p := patternBase + bits.TrailingZeros64(d)
				tau := p*e.shiftsL + pos
				syn := e.xp[totalClocks-1-tau+chain]
				for t := 0; t < e.plan.Partitions; t++ {
					slot := e.verdictIndex(chain, e.parts[chain][t].GroupOf[pos])
					v.ErrSig[t][slot] ^= syn
					if e.plan.Ideal {
						v.Fail[t][slot] = true
					}
				}
			}
		}
		patternBase += b.N
	}
	if !e.plan.Ideal {
		for t := range v.ErrSig {
			for g, s := range v.ErrSig[t] {
				v.Fail[t][g] = s != 0
			}
		}
	}
}

// scanFixture is one engine over s953 with its pattern blocks, fault-free
// responses and a fault sample.
type scanFixture struct {
	e      *Engine
	fs     *sim.FaultSim
	good   []*sim.Response
	blocks []*sim.Block
	faults []sim.Fault
}

// unequalChains cuts a shuffled order of n cells into chains of unequal
// length: one chain, or a short first chain and longer later ones.
func unequalChains(n, chains int, seed int64) scan.Config {
	order := scan.RandomOrder(n, seed)
	cfg := scan.Config{NumCells: n}
	start := 0
	for i := 0; i < chains; i++ {
		size := n - start
		if i < chains-1 {
			size = (i + 1) * n / (chains * (chains + 1) / 2)
		}
		cfg.Chains = append(cfg.Chains, scan.Chain{Cells: append([]int(nil), order[start:start+size]...)})
		start += size
	}
	return cfg
}

func newScanFixture(chains, patterns int, plan Plan, seed int64) (*scanFixture, error) {
	c := benchgen.MustGenerate("s953")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), uint64(seed)&0xFFFF|1)
	blocks := GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), patterns)
	fs := sim.NewFaultSim(c, blocks)
	e, err := NewEngine(unequalChains(c.NumDFFs(), chains, seed), plan, patterns)
	if err != nil {
		return nil, err
	}
	good := make([]*sim.Response, len(blocks))
	for i := range blocks {
		good[i] = fs.Good(i)
	}
	faults := sim.SampleFaults(sim.CollapseFaults(c, sim.FullFaultList(c)), 30, seed)
	return &scanFixture{e: e, fs: fs, good: good, blocks: blocks, faults: faults}, nil
}

// dirtyVerdicts returns engine-shaped verdicts with every row set to
// garbage and Unknown rows attached, as a reused buffer may hold.
func dirtyVerdicts(e *Engine, rng *rand.Rand) *Verdicts {
	v := e.NewVerdicts()
	v.Unknown = rows(make([]bool, len(v.Fail)*e.VerdictGroups()), e.VerdictGroups())
	for t := range v.Fail {
		for g := range v.Fail[t] {
			v.Fail[t][g] = rng.Intn(2) == 0
			v.ErrSig[t][g] = rng.Uint64()
			v.Unknown[t][g] = rng.Intn(2) == 0
		}
	}
	return v
}

// checkVerdictsMatchScan compares every verdict entry point against
// verdictsScan for each fault of fx: VerdictsInto and VerdictsUpTo, which
// find the failing cells themselves, and CellVerdictsUpTo given the
// failing cells and a strict superset of them, each into a dirty buffer.
// A disabled noise model must give the same through
// NoisyCellVerdictsInto, and a noisy one the same through the superset as
// through NoisyVerdicts.
func checkVerdictsMatchScan(t *testing.T, label string, fx *scanFixture, rng *rand.Rand) {
	t.Helper()
	e := fx.e
	n := e.Config().NumCells
	noisy := noise.Model{Intermittent: 0.5, Flip: 0.05, Abort: 0.05, Seed: rng.Uint64()}
	rp := RetryPolicy{MaxRetries: 2}
	for _, f := range fx.faults {
		faulty := fx.fs.Faulty(f)
		name := label + " " + f.Describe(fx.fs.Circuit())
		want := e.NewVerdicts()
		verdictsScan(e, fx.good, faulty, fx.blocks, want)

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
			for range 1 + rng.Intn(4) {
				superset.Add(rng.Intn(n))
			}
		}
		all := bitset.New(n)
		for cell := range n {
			all.Add(cell)
		}

		check := func(how string, got *Verdicts) {
			t.Helper()
			if got.Unknown != nil {
				t.Fatalf("%s %s: deterministic verdicts carry Unknown rows", name, how)
			}
			if !reflect.DeepEqual(got.Fail, want.Fail) || !reflect.DeepEqual(got.ErrSig, want.ErrSig) {
				t.Fatalf("%s %s: verdicts differ from the reference scan\ngot  %v %x\nwant %v %x",
					name, how, got.Fail, got.ErrSig, want.Fail, want.ErrSig)
			}
		}
		v := dirtyVerdicts(e, rng)
		e.VerdictsInto(fx.good, faulty, fx.blocks, v)
		check("VerdictsInto", v)
		v = dirtyVerdicts(e, rng)
		if _, err := e.VerdictsUpTo(context.Background(), fx.good, faulty, fx.blocks, v); err != nil {
			t.Fatal(err)
		}
		check("VerdictsUpTo", v)
		for _, cs := range []struct {
			how   string
			cells *bitset.Set
		}{{"failing cells", failing}, {"superset", superset}, {"every cell", all}} {
			v = dirtyVerdicts(e, rng)
			if _, err := e.CellVerdictsUpTo(context.Background(), cs.cells, fx.good, faulty, fx.blocks, v); err != nil {
				t.Fatal(err)
			}
			check("CellVerdictsUpTo over "+cs.how, v)
			got := dirtyVerdicts(e, rng)
			e.NoisyCellVerdictsInto(cs.cells, fx.good, faulty, fx.blocks, noise.Model{}, rp, got, new(Reliability))
			if got.HasUnknown() {
				t.Fatalf("%s: a perfect tester produced Unknown verdicts over %s", name, cs.how)
			}
			got.Unknown = nil // a noisy run always attaches the rows
			check("NoisyCellVerdictsInto over "+cs.how, got)
		}
		base, baseRel := e.NoisyVerdicts(fx.good, faulty, fx.blocks, noisy, rp)
		got, rel := e.NewVerdicts(), new(Reliability)
		e.NoisyCellVerdictsInto(superset, fx.good, faulty, fx.blocks, noisy, rp, got, rel)
		if !reflect.DeepEqual(got, base) || *rel != *baseRel {
			t.Fatalf("%s: noisy verdicts over a superset differ from NoisyVerdicts", name)
		}
	}
}

// TestVerdictsMatchScan pins the cell-driven verdict fold to the per-bit
// reference scan across the MISR and Ideal modes, shared and per-chain
// compactors, 1–3 chains of unequal length in shuffled cell order, and a
// partial last block.
func TestVerdictsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, chains := range []int{1, 2, 3} {
		for _, patterns := range []int{40, 100} {
			for _, ideal := range []bool{false, true} {
				for _, shared := range []bool{false, true} {
					if shared && chains == 1 {
						continue
					}
					plan := Plan{Scheme: partition.TwoStep{}, Groups: 3, Partitions: 4, Ideal: ideal, SharedCompactor: shared}
					label := fmt.Sprintf("chains=%d patterns=%d ideal=%v shared=%v", chains, patterns, ideal, shared)
					fx, err := newScanFixture(chains, patterns, plan, int64(chains*patterns))
					if err != nil {
						t.Fatal(err)
					}
					checkVerdictsMatchScan(t, label, fx, rng)
				}
			}
		}
	}
}

// FuzzVerdictsMatchScan fuzzes the same comparison over the chain count,
// pattern count, compaction mode, compactor sharing, partitioning scheme,
// group count and seeds.
func FuzzVerdictsMatchScan(f *testing.F) {
	f.Add(uint8(1), uint8(40), false, false, false, uint8(4), int64(1))
	f.Add(uint8(2), uint8(100), true, false, true, uint8(3), int64(2))
	f.Add(uint8(3), uint8(65), false, true, false, uint8(2), int64(3))
	f.Add(uint8(3), uint8(7), true, true, true, uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, chains, patterns uint8, ideal, shared, random bool, groups uint8, seed int64) {
		var scheme partition.Scheme = partition.TwoStep{}
		if random {
			scheme = partition.RandomSelection{}
		}
		plan := Plan{Scheme: scheme, Groups: 2 + int(groups)%4, Partitions: 3, Ideal: ideal, SharedCompactor: shared}
		fx, err := newScanFixture(1+int(chains)%3, 1+int(patterns)%150, plan, seed)
		if err != nil {
			t.Skip(err) // a group count the shortest chain cannot hold
		}
		fx.faults = fx.faults[:8]
		checkVerdictsMatchScan(t, fmt.Sprintf("seed=%d", seed), fx, rand.New(rand.NewSource(seed)))
	})
}

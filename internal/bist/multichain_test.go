package bist

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
)

func multiChainSetup(t *testing.T, shared bool) (*Engine, *sim.FaultSim, []*sim.Block) {
	t.Helper()
	circ := benchgen.MustGenerate("s5378")
	cfg, err := scan.SplitContiguous(scan.NaturalOrder(circ.NumDFFs()), 4)
	if err != nil {
		t.Fatal(err)
	}
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := GenerateBlocks(prpg, circ.NumInputs(), circ.NumDFFs(), 64)
	fs := sim.NewFaultSim(circ, blocks)
	eng, err := NewEngine(cfg, Plan{
		Scheme: partition.TwoStep{}, Groups: 4, Partitions: 3, SharedCompactor: shared,
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs, blocks
}

func TestVerdictDimensions(t *testing.T) {
	perChain, _, _ := multiChainSetup(t, false)
	if !perChain.PerChainVerdicts() || perChain.VerdictGroups() != 16 {
		t.Errorf("per-chain engine: perChain=%v groups=%d", perChain.PerChainVerdicts(), perChain.VerdictGroups())
	}
	shared, _, _ := multiChainSetup(t, true)
	if shared.PerChainVerdicts() || shared.VerdictGroups() != 4 {
		t.Errorf("shared engine: perChain=%v groups=%d", shared.PerChainVerdicts(), shared.VerdictGroups())
	}
	// Single chain: always shared semantics regardless of the flag.
	circ := benchgen.MustGenerate("s953")
	cfg := scan.SingleChain(circ.NumDFFs())
	eng, err := NewEngine(cfg, Plan{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 2}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if eng.PerChainVerdicts() || eng.VerdictGroups() != 4 {
		t.Error("single chain should use shared verdict space")
	}
}

// TestSharedVerdictsAreChainwiseOR: a shared-compactor group fails exactly
// when any chain's corresponding per-chain group fails (with an ideal
// compactor, which removes aliasing asymmetries between the two setups).
func TestSharedVerdictsAreChainwiseOR(t *testing.T) {
	circ := benchgen.MustGenerate("s5378")
	cfg, err := scan.SplitContiguous(scan.NaturalOrder(circ.NumDFFs()), 4)
	if err != nil {
		t.Fatal(err)
	}
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := GenerateBlocks(prpg, circ.NumInputs(), circ.NumDFFs(), 64)
	fs := sim.NewFaultSim(circ, blocks)
	mk := func(shared bool) *Engine {
		eng, err := NewEngine(cfg, Plan{
			Scheme: partition.TwoStep{}, Groups: 4, Partitions: 3,
			SharedCompactor: shared, Ideal: true,
		}, 64)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	per, shr := mk(false), mk(true)
	good := make([]*sim.Response, len(blocks))
	for i := range blocks {
		good[i] = fs.Good(i)
	}
	for _, f := range sim.SampleFaults(sim.FullFaultList(circ), 40, 41) {
		faulty := fs.Faulty(f)
		vp := per.Verdicts(good, faulty, blocks)
		vs := shr.Verdicts(good, faulty, blocks)
		for pt := range vs.Fail {
			for g := 0; g < 4; g++ {
				anyChain := false
				for c := 0; c < 4; c++ {
					if vp.Fail[pt][c*4+g] {
						anyChain = true
					}
				}
				if vs.Fail[pt][g] != anyChain {
					t.Fatalf("fault %s partition %d group %d: shared=%v, OR(per-chain)=%v",
						f.Describe(circ), pt, g, vs.Fail[pt][g], anyChain)
				}
			}
		}
	}
}

// TestPerChainMatchesFullMISRMultiChain extends the syndrome/MISR
// equivalence to per-chain verdict slots.
func TestPerChainMatchesFullMISRMultiChain(t *testing.T) {
	eng, fs, blocks := multiChainSetup(t, false)
	good := make([]*sim.Response, len(blocks))
	for i := range blocks {
		good[i] = fs.Good(i)
	}
	for _, f := range sim.SampleFaults(sim.FullFaultList(fs.Circuit()), 12, 42) {
		faulty := fs.Faulty(f)
		v := eng.Verdicts(good, faulty, blocks)
		for pt := 0; pt < 3; pt++ {
			for slot := 0; slot < eng.VerdictGroups(); slot++ {
				want := eng.SessionSignature(good, blocks, pt, slot) !=
					eng.SessionSignature(faulty, blocks, pt, slot)
				if v.Fail[pt][slot] != want {
					t.Fatalf("fault %s partition %d slot %d: verdict %v, MISR %v",
						f.Describe(fs.Circuit()), pt, slot, v.Fail[pt][slot], want)
				}
			}
		}
	}
}

// countingScheme counts the Partitions calls it forwards, per chain length.
type countingScheme struct {
	partition.Scheme
	calls map[int]int
}

func (s *countingScheme) Partitions(n, b, k int) ([]partition.Partition, error) {
	s.calls[n]++
	return s.Scheme.Partitions(n, b, k)
}

// TestEngineSharesEqualLengthChains: NewEngine asks the scheme once per
// distinct chain length, and every chain still gets exactly the partitions
// the scheme gives for its length.
func TestEngineSharesEqualLengthChains(t *testing.T) {
	chip, err := soc.SOC1()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := chip.MetaChains(8)
	if err != nil {
		t.Fatal(err)
	}
	s13207 := benchgen.MustGenerate("s13207")
	split, err := scan.SplitContiguous(scan.NaturalOrder(s13207.NumDFFs()), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cfg   scan.Config
		calls map[int]int
	}{
		{"soc1 tam8", meta, map[int]int{578: 1}},
		{"s13207 split3", split, map[int]int{213: 1, 212: 1}},
	} {
		sch := &countingScheme{Scheme: partition.TwoStep{}, calls: map[int]int{}}
		const groups, parts = 16, 4
		eng, err := NewEngine(c.cfg, Plan{Scheme: sch, Groups: groups, Partitions: parts}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(sch.calls, c.calls) {
			t.Errorf("%s: Partitions calls per chain length %v, want %v", c.name, sch.calls, c.calls)
		}
		for ci, ch := range c.cfg.Chains {
			want, err := partition.TwoStep{}.Partitions(ch.Len(), groups, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(eng.ChainPartitions(ci), want) {
				t.Errorf("%s: chain %d (%d cells) partitions differ from a direct Partitions call", c.name, ci, ch.Len())
			}
		}
	}
}

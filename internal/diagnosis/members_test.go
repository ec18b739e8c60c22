package diagnosis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/scan"
)

// pruneScan is the reference pruner prune must match: the same fixpoint,
// but each failing session's members are found by scanning every cell of
// every chain instead of through the per-partition slot index.
func (d *Diagnoser) pruneScan(v *bist.Verdicts, cand *bitset.Set, kmax int) (pruned, confirmed *bitset.Set) {
	pruned = cand.Clone()
	confirmed = bitset.New(d.cfg.NumCells)
	if len(v.ErrSig) == 0 {
		return pruned, confirmed
	}
	syndrome := make(map[int]uint64)
	type session struct{ t, g int }
	members := func(s session) []int {
		var cells []int
		for ci, ch := range d.cfg.Chains {
			for pos, cell := range ch.Cells {
				if d.groupOf(ci, pos, s.t) == s.g && pruned.Contains(cell) {
					cells = append(cells, cell)
				}
			}
		}
		return cells
	}
	if kmax > len(v.Fail) {
		kmax = len(v.Fail)
	}
	var failing []session
	for t := 0; t < kmax; t++ {
		for g, f := range v.Fail[t] {
			if f {
				failing = append(failing, session{t, g})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range failing {
			cells := members(s)
			residual := v.ErrSig[s.t][s.g]
			var unknown []int
			for _, c := range cells {
				if syn, ok := syndrome[c]; ok {
					residual ^= syn
				} else {
					unknown = append(unknown, c)
				}
			}
			switch {
			case len(unknown) == 1 && residual != 0:
				c := unknown[0]
				syndrome[c] = residual
				confirmed.Add(c)
				changed = true
			case len(unknown) > 0 && residual == 0:
				for _, c := range unknown {
					pruned.Remove(c)
				}
				changed = true
			}
		}
	}
	pruned.UnionWith(confirmed)
	return pruned, confirmed
}

// layout is a verdict-slot arrangement of a random pruning case.
type layout int

const (
	singleChain   layout = iota
	sharedSlots          // several chains, group g of every chain in slot g
	perChainSlots        // several chains, one slot per (chain, group)
)

func (l layout) String() string {
	return [...]string{"single-chain", "shared-slot", "per-chain"}[l]
}

// randomPruneCase builds a Diagnoser over a random configuration of the
// given layout and random verdicts for it. Half the cases derive error
// signatures from a random set of failing cells with random syndromes, as
// a linear compactor would (so sessions confirm and prune); the rest draw
// verdicts and signatures independently, including sessions that fail
// with a zero signature.
func randomPruneCase(rng *rand.Rand, lay layout) (*Diagnoser, *bist.Verdicts, error) {
	numCells := 1 + rng.Intn(60)
	numChains := 1
	if lay != singleChain {
		numChains = 1 + rng.Intn(min(numCells, 5))
	}
	order := rng.Perm(numCells)
	cfg, err := scan.SplitContiguous(order, numChains)
	if err != nil {
		return nil, nil, err
	}
	k := 1 + rng.Intn(6)
	b := 1 + rng.Intn(min(8, cfg.MaxChainLength()))
	parts := make([][]partition.Partition, numChains)
	for ci, ch := range cfg.Chains {
		parts[ci] = make([]partition.Partition, k)
		for t := range parts[ci] {
			p := partition.Partition{GroupOf: make([]int, ch.Len()), NumGroups: b}
			for pos := range p.GroupOf {
				p.GroupOf[pos] = rng.Intn(b)
			}
			parts[ci][t] = p
		}
	}
	d, err := newDiagnoser(cfg, parts, lay == perChainSlots)
	if err != nil {
		return nil, nil, err
	}
	slots := b
	if lay == perChainSlots {
		slots = numChains * b
	}
	v := &bist.Verdicts{Fail: make([][]bool, k), ErrSig: make([][]uint64, k)}
	for t := range v.Fail {
		v.Fail[t] = make([]bool, slots)
		v.ErrSig[t] = make([]uint64, slots)
	}
	if rng.Intn(2) == 0 {
		syndrome := make(map[int]uint64)
		for cell := 0; cell < numCells; cell++ {
			if rng.Intn(4) == 0 {
				syndrome[cell] = 1 + uint64(rng.Intn(15)) // collisions happen
			}
		}
		for ci, ch := range cfg.Chains {
			for pos, cell := range ch.Cells {
				for t := 0; t < k; t++ {
					g := d.groupOf(ci, pos, t)
					v.ErrSig[t][g] ^= syndrome[cell]
				}
			}
		}
		for t := range v.Fail {
			for g, sig := range v.ErrSig[t] {
				v.Fail[t][g] = sig != 0
			}
		}
		return d, v, nil
	}
	for t := range v.Fail {
		for g := range v.Fail[t] {
			if v.Fail[t][g] = rng.Intn(3) != 0; v.Fail[t][g] && rng.Intn(4) != 0 {
				v.ErrSig[t][g] = uint64(rng.Intn(8))
			}
		}
	}
	return d, v, nil
}

// checkPruneMatchesScan compares Diagnose, over all partitions and over
// every observed prefix, with the reference pruner.
func checkPruneMatchesScan(t *testing.T, d *Diagnoser, v *bist.Verdicts, what string) {
	t.Helper()
	check := func(name string, got *Result, observed int) {
		t.Helper()
		cand := d.Candidates(v, observed)
		pruned, confirmed := d.pruneScan(v, cand, observed)
		if !got.Candidates.Equal(cand) || !got.Pruned.Equal(pruned) || !got.Confirmed.Equal(confirmed) {
			t.Fatalf("%s: %s(%d): candidates/pruned/confirmed = %v/%v/%v, scan = %v/%v/%v",
				what, name, observed, got.Candidates, got.Pruned, got.Confirmed, cand, pruned, confirmed)
		}
	}
	check("Diagnose", d.Diagnose(v), len(v.Fail))
	for observed := 0; observed <= len(v.Fail); observed++ {
		check("Diagnose(Prefix)", d.Diagnose(v.Prefix(observed)), observed)
	}
}

func TestPruneMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, lay := range []layout{singleChain, sharedSlots, perChainSlots} {
		for i := 0; i < 300; i++ {
			d, v, err := randomPruneCase(rng, lay)
			if err != nil {
				t.Fatal(err)
			}
			checkPruneMatchesScan(t, d, v, fmt.Sprintf("%v case %d", lay, i))
		}
	}
	// A fixed two-chain layout with every session failing, under both
	// slot arrangements.
	cfg, err := scan.SplitContiguous([]int{5, 0, 3, 1, 4, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]partition.Partition{
		{{GroupOf: []int{0, 0, 1}, NumGroups: 2}, {GroupOf: []int{0, 1, 1}, NumGroups: 2}},
		{{GroupOf: []int{1, 0, 0}, NumGroups: 2}, {GroupOf: []int{1, 1, 0}, NumGroups: 2}},
	}
	for _, perChain := range []bool{false, true} {
		d, err := newDiagnoser(cfg, parts, perChain)
		if err != nil {
			t.Fatal(err)
		}
		slots := 2
		if perChain {
			slots = 4
		}
		v := &bist.Verdicts{Fail: make([][]bool, 2), ErrSig: make([][]uint64, 2)}
		for tt := range v.Fail {
			v.Fail[tt] = make([]bool, slots)
			v.ErrSig[tt] = make([]uint64, slots)
			for g := range v.Fail[tt] {
				v.Fail[tt][g] = true
				v.ErrSig[tt][g] = uint64(g + 1)
			}
		}
		checkPruneMatchesScan(t, d, v, fmt.Sprintf("hand-built perChain=%v", perChain))
	}
}

// FuzzPruneMatchesScan compares the indexed pruner with the reference
// scan on random configurations, verdicts and error signatures drawn from
// the fuzzed seed.
func FuzzPruneMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, lay uint8) {
		l := layout(lay % 3)
		d, v, err := randomPruneCase(rand.New(rand.NewSource(seed)), l)
		if err != nil {
			t.Fatal(err)
		}
		checkPruneMatchesScan(t, d, v, fmt.Sprintf("%v seed %d", l, seed))
	})
}

package diagnosis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/scan"
)

// pruneScan is the reference pruner prune must match: the same fixpoint,
// but each failing session's members are found by scanning every cell of
// every chain on every pass instead of through counters and slot masks.
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

// caseShape selects the geometry of a random case. Bits 0–1 pick how cell
// ids run along the chains (shuffled, natural, interleaved, or natural
// reversed). Bit 2 draws up to 300 cells instead of up to 60, so masks
// cross word boundaries, and chain boundaries fall inside words. Bit 3
// makes the verdict rows wider than the highest slot any cell occupies.
type caseShape uint8

const (
	orderBits caseShape = 3
	wideCells caseShape = 4
	wideRows  caseShape = 8
	numShapes           = 16
)

// scanOrder lays the cell ids 0..Σlengths−1 along chains of the given
// lengths.
// Shuffled ids make every slot span the whole word range; natural ids
// keep a per-chain slot within its chain's words; interleaved ids deal
// the cells round-robin over the chains, so chain spans overlap.
func (sh caseShape) scanOrder(rng *rand.Rand, lengths []int) [][]int {
	numCells := 0
	for _, n := range lengths {
		numCells += n
	}
	chains := make([][]int, len(lengths))
	switch sh & orderBits {
	case 0:
		perm := rng.Perm(numCells)
		for ci, n := range lengths {
			chains[ci], perm = perm[:n], perm[n:]
		}
	case 2:
		for cell, ci := 0, 0; cell < numCells; ci = (ci + 1) % len(chains) {
			if len(chains[ci]) < lengths[ci] {
				chains[ci] = append(chains[ci], cell)
				cell++
			}
		}
	default:
		cell := 0
		for ci, n := range lengths {
			for range n {
				chains[ci] = append(chains[ci], cell)
				cell++
			}
		}
		if sh&orderBits == 3 {
			for _, ch := range chains {
				for i := range ch {
					ch[i] = numCells - 1 - ch[i]
				}
			}
		}
	}
	return chains
}

// randomPruneCase builds a Diagnoser over a random configuration of the
// given layout and shape, and random verdicts for it. Chains get random
// lengths; each partition groups its positions either at random or in
// contiguous intervals, which keeps slot spans narrow. Half the cases
// derive error signatures from a random set of failing cells with random
// syndromes, as a linear compactor would (so sessions confirm and prune);
// the rest draw verdicts and signatures independently, including
// sessions that fail with a zero signature and failing slots no cell
// occupies.
func randomPruneCase(rng *rand.Rand, lay layout, sh caseShape) (*Diagnoser, *bist.Verdicts, error) {
	numCells := 1 + rng.Intn(60)
	if sh&wideCells != 0 {
		numCells = 1 + rng.Intn(300)
	}
	return pruneCase(rng, lay, sh, numCells, 1+rng.Intn(6))
}

// pruneCase is randomPruneCase over numCells cells and k partitions.
func pruneCase(rng *rand.Rand, lay layout, sh caseShape, numCells, k int) (*Diagnoser, *bist.Verdicts, error) {
	numChains := 1
	if lay != singleChain {
		numChains = 1 + rng.Intn(min(numCells, 5))
	}
	// Random cut points split the cells into chains of random lengths.
	cuts := append(rng.Perm(numCells - 1)[:numChains-1], numCells-1)
	slices.Sort(cuts)
	lengths := make([]int, numChains)
	prev := -1
	for ci, cut := range cuts {
		lengths[ci], prev = cut-prev, cut
	}
	cfg := scan.Config{NumCells: numCells}
	for _, cells := range sh.scanOrder(rng, lengths) {
		cfg.Chains = append(cfg.Chains, scan.Chain{Cells: cells})
	}
	b := 1 + rng.Intn(min(16, cfg.MaxChainLength()))
	parts := make([][]partition.Partition, numChains)
	intervals := make([]bool, k)
	for t := range intervals {
		intervals[t] = rng.Intn(3) == 0
	}
	for ci, ch := range cfg.Chains {
		parts[ci] = make([]partition.Partition, k)
		for t := range parts[ci] {
			p := partition.Partition{GroupOf: make([]int, ch.Len()), NumGroups: b}
			for pos := range p.GroupOf {
				if intervals[t] {
					p.GroupOf[pos] = pos * b / ch.Len()
				} else {
					p.GroupOf[pos] = rng.Intn(b)
				}
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
	if sh&wideRows != 0 {
		slots += 1 + rng.Intn(70)
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
			sh := caseShape(rng.Intn(numShapes))
			d, v, err := randomPruneCase(rng, lay, sh)
			if err != nil {
				t.Fatal(err)
			}
			checkPruneMatchesScan(t, d, v, fmt.Sprintf("%v shape %d case %d", lay, sh, i))
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

// addShapeSeeds seeds a fuzz target taking (seed, layout, shape) with
// every shape in every layout.
func addShapeSeeds(f *testing.F) {
	for sh := range numShapes {
		for lay := range 3 {
			f.Add(int64(sh*3+lay), uint8(lay), uint8(sh))
		}
	}
}

// FuzzPruneMatchesScan compares the counter fixpoint with the reference
// scan on random configurations, verdicts and error signatures drawn from
// the fuzzed seed, in the fuzzed layout and shape.
func FuzzPruneMatchesScan(f *testing.F) {
	addShapeSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, lay, shape uint8) {
		l, sh := layout(lay%3), caseShape(shape%numShapes)
		d, v, err := randomPruneCase(rand.New(rand.NewSource(seed)), l, sh)
		if err != nil {
			t.Fatal(err)
		}
		checkPruneMatchesScan(t, d, v, fmt.Sprintf("%v shape %d seed %d", l, sh, seed))
	})
}

package bist

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lfsr"
	"repro/internal/sim"
)

// generateBlocksStep is the per-bit pattern expansion GenerateBlocks
// replaced — one LFSR.Step call per bit — kept as its oracle.
func generateBlocksStep(prpg *lfsr.LFSR, nPI, nCells, nPatterns int) []*sim.Block {
	var blocks []*sim.Block
	for done := 0; done < nPatterns; done += 64 {
		n := min(nPatterns-done, 64)
		b := &sim.Block{N: n, PI: make([]uint64, nPI), State: make([]uint64, nCells)}
		for j := 0; j < n; j++ {
			for i := 0; i < nCells; i++ {
				b.State[i] |= prpg.Step() << uint(j)
			}
			for i := 0; i < nPI; i++ {
				b.PI[i] |= prpg.Step() << uint(j)
			}
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestGenerateBlocksMatchesStep pins GenerateBlocks to the per-bit loop:
// the same blocks bit for bit, and the PRPG left in the same state, since
// callers may keep stepping it. Pattern counts straddle the 64-pattern
// block edge; the polynomials run from degree 2 to 63, one of them not
// primitive.
func TestGenerateBlocksMatchesStep(t *testing.T) {
	polys := []struct {
		poly lfsr.Poly
		seed uint64
	}{
		{lfsr.MustPrimitivePoly(16), 0xACE1},
		{lfsr.MustPrimitivePoly(2), 1},
		{lfsr.MustPrimitivePoly(7), 0x55},
		{lfsr.MustPrimitivePoly(32), 0xDEADBEEF},
		{lfsr.Poly(1<<63 | 1<<1 | 1), 0x7FFF_FFFF_FFFF_FFFF}, // x^63 + x + 1
		{lfsr.Poly(0b1011_0111), 0x2B},                       // degree 7, not primitive
	}
	for _, p := range polys {
		for _, nPatterns := range []int{1, 63, 64, 65, 128} {
			for _, shape := range [][2]int{{0, 1}, {0, 17}, {5, 1}, {62, 638}, {3, 0}} {
				nPI, nCells := shape[0], shape[1]
				name := fmt.Sprintf("poly %v, %d patterns, %d PIs, %d cells", p.poly, nPatterns, nPI, nCells)
				got, want := lfsr.MustNew(p.poly, p.seed), lfsr.MustNew(p.poly, p.seed)
				gb := GenerateBlocks(got, nPI, nCells, nPatterns)
				wb := generateBlocksStep(want, nPI, nCells, nPatterns)
				if len(gb) != len(wb) {
					t.Fatalf("%s: %d blocks, want %d", name, len(gb), len(wb))
				}
				for i := range gb {
					if gb[i].N != wb[i].N || !slices.Equal(gb[i].PI, wb[i].PI) || !slices.Equal(gb[i].State, wb[i].State) {
						t.Fatalf("%s: block %d differs from the per-bit expansion", name, i)
					}
				}
				if got.State() != want.State() {
					t.Fatalf("%s: PRPG ends in state %#x, per-bit expansion in %#x", name, got.State(), want.State())
				}
				if a, b := got.Step(), want.Step(); a != b || got.State() != want.State() {
					t.Fatalf("%s: the next Step after expansion differs", name)
				}
			}
		}
	}
}

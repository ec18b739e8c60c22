package diagnosis

import (
	"math/bits"

	"repro/internal/bist"
	"repro/internal/bitset"
)

// CandidatesVoted is the vote-threshold counterpart of Candidates over the
// first k partitions: a cell is pruned only when its group's verdict is
// Pass in at least voteK of those partitions, and Unknown verdicts never
// prune. voteK ≤ 1 with fully-determined verdicts reduces to the hard
// intersection (one pass anywhere prunes); higher thresholds trade
// resolution for soundness under a tester whose pass verdicts cannot be
// trusted individually — a wrong pass must be corroborated by voteK−1
// further independent partitions before it costs a candidate.
//
// Equivalently, a cell survives iff it is non-pass (Fail or Unknown) in
// at least need = k−voteK+1 of the k partitions. The count is bit-sliced:
// each partition's non-pass cells form one word vector, the OR of its
// non-pass slot masks, which a ripple-carry add folds into counter planes
// (plane p holds bit p of every cell's count). A comparison of the planes
// with need, from the top bit down, yields the candidate words.
func (d *Diagnoser) CandidatesVoted(v *bist.Verdicts, k, voteK int) *bitset.Set {
	k = min(k, len(v.Fail))
	voteK = max(voteK, 1)
	need := k - voteK + 1
	if need <= 0 {
		// Fewer partitions than the threshold: nothing can be pruned.
		return d.allCells()
	}
	cand := bitset.New(d.cfg.NumCells)
	out := cand.Words()
	np := bits.Len(uint(k)) // planes for counts up to k
	var planeBuf [votePlanes * chunkWords]uint64
	var xBuf [chunkWords]uint64
	planes := planeBuf[:]
	if np > votePlanes {
		planes = make([]uint64, np*chunkWords)
	}
	nw := d.numWords()
	for lo := 0; lo < nw; lo += chunkWords {
		hi := min(lo+chunkWords, nw)
		clear(planes[:np*chunkWords])
		for t := 0; t < k; t++ {
			x := xBuf[:hi-lo]
			d.nonPass(v, t, x, lo)
			for i, carry := range x {
				for p := 0; carry != 0; p++ {
					pl := &planes[p*chunkWords+i]
					*pl, carry = *pl^carry, *pl&carry
				}
			}
		}
		for i := range hi - lo {
			gt, eq := uint64(0), ^uint64(0)
			for p := np - 1; p >= 0; p-- {
				pl := planes[p*chunkWords+i]
				if need>>p&1 == 1 {
					eq &= pl
				} else {
					gt |= eq & pl
					eq &^= pl
				}
			}
			out[lo+i] = gt | eq
		}
	}
	return cand
}

// votePlanes is the counter depth CandidatesVoted keeps on the stack:
// counts up to 15 partitions. Deeper counters go on the heap.
const votePlanes = 4

// nonPass writes into x the non-pass cells of partition t among the
// words base through base+len(x)−1: the OR of its non-pass slot masks.
func (d *Diagnoser) nonPass(v *bist.Verdicts, t int, x []uint64, base int) {
	clear(x)
	for g := range v.Fail[t] {
		if v.State(t, g) != bist.VerdictPass {
			d.orMask(x, base, t, g)
		}
	}
}

// DiagnoseRobust runs the noise-tolerant flow: vote-threshold candidate
// derivation over all partitions, with graceful degradation of the
// signature-based refinements. With voteK ≤ 1 and fully-determined
// verdicts it is exactly Diagnose — same candidate set, same
// superposition pruning, bit-for-bit. Otherwise the verdicts came from an
// unreliable tester, where per-session error signatures are not
// reproducible (an intermittent fault excites a different error subset in
// every execution), so superposition pruning and confirmation are skipped
// and the result is the widened-but-sound voted candidate set.
func (d *Diagnoser) DiagnoseRobust(v *bist.Verdicts, voteK int) *Result {
	if voteK <= 1 && !v.HasUnknown() {
		return d.Diagnose(v)
	}
	cand := d.CandidatesVoted(v, len(v.Fail), voteK)
	return &Result{
		Candidates: cand,
		Pruned:     cand.Clone(),
		Confirmed:  bitset.New(d.cfg.NumCells),
	}
}

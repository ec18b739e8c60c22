package diagnosis

import (
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
// at least need = k−voteK+1 of the k partitions. The count is taken over
// the slot index: only the members of each partition's non-pass slots
// are visited, which for a diagnosable fault is a small fraction of
// cells × partitions.
func (d *Diagnoser) CandidatesVoted(v *bist.Verdicts, k, voteK int) *bitset.Set {
	k = min(k, len(v.Fail))
	voteK = max(voteK, 1)
	need := int32(k - voteK + 1)
	if need <= 0 {
		// Fewer partitions than the threshold: nothing can be pruned.
		return d.allCells()
	}
	cand := bitset.New(d.cfg.NumCells)
	buf := d.votes.Get().(*[]int32)
	votes := *buf
	for t := 0; t < k; t++ {
		for g := range v.Fail[t] {
			if v.State(t, g) != bist.VerdictPass {
				for _, cell := range d.members[t].slot(g) {
					votes[cell]++
				}
			}
		}
	}
	// The second walk reads the counts and zeroes them again, so the
	// buffer goes back to the pool clean without an O(cells) clear.
	for t := 0; t < k; t++ {
		for g := range v.Fail[t] {
			if v.State(t, g) != bist.VerdictPass {
				for _, cell := range d.members[t].slot(g) {
					if votes[cell] >= need {
						cand.Add(int(cell))
					}
					votes[cell] = 0
				}
			}
		}
	}
	d.votes.Put(buf)
	return cand
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

// Package diagnosis turns the group pass/fail verdicts of a multi-session
// scan-BIST run into candidate failing scan cells, and scores schemes with
// the paper's diagnostic-resolution (DR) metric.
//
// The base step is the classical inclusion–exclusion pruning: every cell
// lies in exactly one group per partition, so a cell is a candidate exactly
// when its group failed in *every* partition. On top of that, Prune applies
// a superposition-style refinement in the spirit of Bayraktaroglu &
// Orailoglu: because the MISR is linear, the error signature of a group is
// the XOR of per-cell error syndromes, and a cell's syndrome is the same in
// every session that unmasks it. Singleton failing groups therefore reveal
// their cell's syndrome exactly, and groups whose observed error signature
// is fully explained by already-confirmed cells prune their remaining
// candidates.
package diagnosis

import (
	"fmt"
	"sync"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/partition"
	"repro/internal/scan"
)

// Result is the outcome of diagnosing one faulty device.
type Result struct {
	// Candidates is the intersection-pruned candidate set ("without
	// pruning" in the paper's tables).
	Candidates *bitset.Set
	// Pruned is the candidate set after superposition-style refinement
	// ("with pruning").
	Pruned *bitset.Set
	// Confirmed holds cells proven failing (their error syndrome was
	// isolated); always a subset of Pruned.
	Confirmed *bitset.Set
}

// Diagnoser derives candidate sets for one scan configuration and its
// per-chain partitions (as produced by a bist.Engine).
type Diagnoser struct {
	cfg   scan.Config
	parts [][]partition.Partition // parts[chain][t]
	// perChain mirrors the engine's compactor arrangement: when set,
	// verdict slot chain*NumGroups+g holds chain's group g.
	perChain bool
	// members[t] indexes partition t's cells by verdict slot.
	members []slotIndex
	// votes pools the per-cell non-pass counters of CandidatesVoted
	// (*[]int32, NumCells long, all zero between calls).
	votes sync.Pool
}

// slotIndex lists one partition's cells grouped by verdict slot: slot g
// holds cells[start[g]:start[g+1]], in scan order (chain, then position).
type slotIndex struct {
	start []int32
	cells []int32
}

// slot returns the cells in verdict slot g.
func (x *slotIndex) slot(g int) []int32 {
	if g+1 >= len(x.start) {
		return nil
	}
	return x.cells[x.start[g]:x.start[g+1]]
}

// New builds a Diagnoser. The partitions must cover each chain of cfg, one
// list per chain with equal partition counts.
func New(cfg scan.Config, parts [][]partition.Partition) (*Diagnoser, error) {
	return newDiagnoser(cfg, parts, false)
}

func newDiagnoser(cfg scan.Config, parts [][]partition.Partition, perChain bool) (*Diagnoser, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(parts) != cfg.NumChains() {
		return nil, fmt.Errorf("diagnosis: %d partition lists for %d chains", len(parts), cfg.NumChains())
	}
	k := -1
	for ci, ch := range cfg.Chains {
		if k == -1 {
			k = len(parts[ci])
		} else if len(parts[ci]) != k {
			return nil, fmt.Errorf("diagnosis: chain %d has %d partitions, chain 0 has %d", ci, len(parts[ci]), k)
		}
		for t, p := range parts[ci] {
			if p.Len() != ch.Len() {
				return nil, fmt.Errorf("diagnosis: chain %d partition %d covers %d of %d positions",
					ci, t, p.Len(), ch.Len())
			}
		}
	}
	d := &Diagnoser{cfg: cfg, parts: parts, perChain: perChain, members: make([]slotIndex, max(k, 0))}
	d.votes.New = func() any {
		votes := make([]int32, cfg.NumCells)
		return &votes
	}
	for t := range d.members {
		d.members[t] = d.indexSlots(t)
	}
	return d, nil
}

// indexSlots builds partition t's slotIndex by a counting sort over the
// scan order, so each slot keeps the order a scan of the configuration
// meets its cells in.
func (d *Diagnoser) indexSlots(t int) slotIndex {
	numSlots := 0
	for ci, ch := range d.cfg.Chains {
		for pos := range ch.Cells {
			numSlots = max(numSlots, d.groupOf(ci, pos, t)+1)
		}
	}
	x := slotIndex{start: make([]int32, numSlots+1)}
	for ci, ch := range d.cfg.Chains {
		for pos := range ch.Cells {
			if g := d.groupOf(ci, pos, t); g >= 0 {
				x.start[g+1]++
			}
		}
	}
	for g := 1; g <= numSlots; g++ {
		x.start[g] += x.start[g-1]
	}
	x.cells = make([]int32, x.start[numSlots])
	next := append([]int32(nil), x.start[:numSlots]...)
	for ci, ch := range d.cfg.Chains {
		for pos, cell := range ch.Cells {
			if g := d.groupOf(ci, pos, t); g >= 0 {
				x.cells[next[g]] = int32(cell)
				next[g]++
			}
		}
	}
	return x
}

// FromEngine builds a Diagnoser sharing an engine's configuration,
// partitions, and compactor arrangement.
func FromEngine(e *bist.Engine) (*Diagnoser, error) {
	parts := make([][]partition.Partition, e.Config().NumChains())
	for ci := range parts {
		parts[ci] = e.ChainPartitions(ci)
	}
	return newDiagnoser(e.Config(), parts, e.PerChainVerdicts())
}

// NumPartitions returns the partition count per chain.
func (d *Diagnoser) NumPartitions() int {
	if len(d.parts) == 0 {
		return 0
	}
	return len(d.parts[0])
}

// groupOf returns the verdict slot of a cell in partition t.
func (d *Diagnoser) groupOf(chain, pos, t int) int {
	g := d.parts[chain][t].GroupOf[pos]
	if d.perChain {
		return chain*d.parts[chain][t].NumGroups + g
	}
	return g
}

// Candidates applies inclusion–exclusion over the first k partitions (k ≤
// verdict count): a cell remains a candidate iff its group failed in every
// one of those partitions. Using a prefix lets one verdict set answer "how
// good is the resolution after k partitions?" for all k.
func (d *Diagnoser) Candidates(v *bist.Verdicts, k int) *bitset.Set {
	if k > len(v.Fail) {
		k = len(v.Fail)
	}
	cand := bitset.New(d.cfg.NumCells)
	for ci, ch := range d.cfg.Chains {
		for pos, cell := range ch.Cells {
			in := true
			for t := 0; t < k; t++ {
				if !v.Fail[t][d.groupOf(ci, pos, t)] {
					in = false
					break
				}
			}
			if in {
				cand.Add(cell)
			}
		}
	}
	return cand
}

// CandidateCounts fills counts[k-1] with Candidates(v, k).Len() for every
// prefix length k in 1..len(counts), in one O(cells × partitions) pass
// without allocating. Each cell contributes the length of its longest
// all-failing partition prefix to an in-place histogram, and a suffix sum
// turns exact prefix lengths into "candidate after k partitions" counts.
func (d *Diagnoser) CandidateCounts(v *bist.Verdicts, counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	kmax := len(counts)
	if kmax > len(v.Fail) {
		kmax = len(v.Fail)
	}
	if kmax == 0 {
		return
	}
	for ci, ch := range d.cfg.Chains {
		for pos := range ch.Cells {
			l := 0
			for t := 0; t < kmax; t++ {
				if !v.Fail[t][d.groupOf(ci, pos, t)] {
					break
				}
				l++
			}
			if l > 0 {
				counts[l-1]++
			}
		}
	}
	for k := kmax - 1; k > 0; k-- {
		counts[k-1] += counts[k]
	}
	// Candidates clamps k to the verdict count, so any tail entries equal
	// the full-prefix count.
	for k := kmax; k < len(counts); k++ {
		counts[k] = counts[kmax-1]
	}
}

// Diagnose runs the full flow over all partitions: intersection candidates,
// then superposition pruning.
func (d *Diagnoser) Diagnose(v *bist.Verdicts) *Result {
	cand := d.Candidates(v, len(v.Fail))
	pruned, confirmed := d.prune(v, cand, len(v.Fail))
	return &Result{Candidates: cand, Pruned: pruned, Confirmed: confirmed}
}

// prune refines the candidate set using error-signature superposition,
// consuming only the first kmax sessions (a degraded run's unobserved
// sessions carry no signature and must not vote).
// Invariant: a failing cell is never removed as long as the single-fault
// assumption's error signatures are consistent (syndrome cancellation of
// distinct cells is the only escape, and requires a 2^-degree collision).
func (d *Diagnoser) prune(v *bist.Verdicts, cand *bitset.Set, kmax int) (pruned, confirmed *bitset.Set) {
	pruned = cand.Clone()
	confirmed = bitset.New(d.cfg.NumCells)
	if len(v.ErrSig) == 0 {
		return pruned, confirmed
	}
	syndrome := make(map[int]uint64) // confirmed cell -> isolated error syndrome

	type session struct{ t, g int }
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

	var unknown []int
	for changed := true; changed; {
		changed = false
		for _, s := range failing {
			// The session's remaining candidates, in scan order.
			residual := v.ErrSig[s.t][s.g]
			unknown = unknown[:0]
			for _, c := range d.members[s.t].slot(s.g) {
				c := int(c)
				if !pruned.Contains(c) {
					continue
				}
				if syn, ok := syndrome[c]; ok {
					residual ^= syn
				} else {
					unknown = append(unknown, c)
				}
			}
			switch {
			case len(unknown) == 1 && residual != 0:
				// Exactly one unexplained candidate: it must be failing and
				// its syndrome is the residual.
				c := unknown[0]
				syndrome[c] = residual
				confirmed.Add(c)
				changed = true
			case len(unknown) > 0 && residual == 0:
				// The observed error signature is fully explained by
				// confirmed cells; the remaining candidates captured no
				// error here and cannot be failing.
				for _, c := range unknown {
					pruned.Remove(c)
				}
				changed = true
			}
		}
	}
	// Confirmed cells always survive pruning.
	pruned.UnionWith(confirmed)
	return pruned, confirmed
}

// DR is the paper's diagnostic-resolution accumulator:
//
//	DR = (Σ_f |candidates(f)| − Σ_f |actual(f)|) / Σ_f |actual(f)|
//
// over the diagnosed (detected) faults f. DR = 0 is perfect resolution.
type DR struct {
	Candidates int // Σ candidate cells
	Actual     int // Σ actual failing cells
	Faults     int // number of faults accumulated
}

// Add accumulates one fault's outcome.
func (d *DR) Add(numCandidates, numActual int) {
	d.Candidates += numCandidates
	d.Actual += numActual
	d.Faults++
}

// Value returns the DR metric; NaN-free: zero actual cells yields 0.
func (d *DR) Value() float64 {
	if d.Actual == 0 {
		return 0
	}
	return float64(d.Candidates-d.Actual) / float64(d.Actual)
}

func (d *DR) String() string {
	return fmt.Sprintf("DR=%.3f (%d faults, %d candidates / %d actual)",
		d.Value(), d.Faults, d.Candidates, d.Actual)
}

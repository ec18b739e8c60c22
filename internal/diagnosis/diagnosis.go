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
	"slices"
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
	// loc[cell] is the cell's chain and position, for slotOf.
	loc []cellLoc
	// votes pools the per-cell non-pass counters of CandidatesVoted
	// (*[]int32, NumCells long, all zero between calls).
	votes sync.Pool
	// scratch pools prune's *pruneScratch.
	scratch sync.Pool
}

// cellLoc is a cell's place in the scan configuration.
type cellLoc struct{ chain, pos int32 }

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
	d := &Diagnoser{cfg: cfg, parts: parts, perChain: perChain, members: make([]slotIndex, max(k, 0)),
		loc: make([]cellLoc, cfg.NumCells)}
	for ci, ch := range cfg.Chains {
		for pos, cell := range ch.Cells {
			d.loc[cell] = cellLoc{int32(ci), int32(pos)}
		}
	}
	d.votes.New = func() any {
		votes := make([]int32, cfg.NumCells)
		return &votes
	}
	d.scratch.New = func() any {
		return &pruneScratch{syndrome: make([]uint64, cfg.NumCells)}
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

// slotOf returns the verdict slot of a cell in partition t.
func (d *Diagnoser) slotOf(cell, t int) int {
	l := d.loc[cell]
	return d.groupOf(int(l.chain), int(l.pos), t)
}

// failPrefix returns how many of the first k partitions, counted from
// partition 0, fail in a row in the cell's slots.
func (d *Diagnoser) failPrefix(v *bist.Verdicts, cell, k int) int {
	t := 0
	for t < k && v.Fail[t][d.slotOf(cell, t)] {
		t++
	}
	return t
}

// allCells returns the set of every scanned cell.
func (d *Diagnoser) allCells() *bitset.Set {
	cand := bitset.New(d.cfg.NumCells)
	for _, ch := range d.cfg.Chains {
		for _, cell := range ch.Cells {
			cand.Add(cell)
		}
	}
	return cand
}

// Candidates applies inclusion–exclusion over the first k partitions (k ≤
// verdict count): a cell remains a candidate iff its group failed in every
// one of those partitions. Using a prefix lets one verdict set answer "how
// good is the resolution after k partitions?" for all k.
//
// A candidate lies in a failing slot of partition 0, so only those slots'
// members are visited, each checked against the later partitions until
// one passes.
func (d *Diagnoser) Candidates(v *bist.Verdicts, k int) *bitset.Set {
	k = min(k, len(v.Fail))
	if k <= 0 {
		return d.allCells()
	}
	cand := bitset.New(d.cfg.NumCells)
	for g, fail := range v.Fail[0] {
		if !fail {
			continue
		}
		for _, c := range d.members[0].slot(g) {
			if d.failPrefix(v, int(c), k) == k {
				cand.Add(int(c))
			}
		}
	}
	return cand
}

// CandidateCounts fills counts[k-1] with Candidates(v, k).Len() for every
// prefix length k in 1..len(counts), without allocating. Each member of a
// failing slot of partition 0 contributes the length of its longest
// all-failing partition prefix to an in-place histogram (every other cell
// has prefix length 0), and a suffix sum turns exact prefix lengths into
// "candidate after k partitions" counts.
func (d *Diagnoser) CandidateCounts(v *bist.Verdicts, counts []int) {
	clear(counts)
	kmax := min(len(counts), len(v.Fail))
	if kmax == 0 {
		return
	}
	for g, fail := range v.Fail[0] {
		if !fail {
			continue
		}
		for _, c := range d.members[0].slot(g) {
			counts[d.failPrefix(v, int(c), kmax)-1]++
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

// pruneScratch holds prune's reusable buffers.
type pruneScratch struct {
	// syndrome[c] is the isolated error syndrome of cell c, valid where
	// confirmed holds c.
	syndrome []uint64
	at       []placement
	start    []int32
	cells    []int32
	sessions []pruneSession
}

// placement puts a candidate cell in failing session id t×stride+g.
type placement struct{ id, cell int32 }

// pruneSession is a failing session's observed error signature and its
// remaining candidates.
type pruneSession struct {
	sig   uint64
	cells []int32
}

// prune refines the candidate set using error-signature superposition,
// consuming only the first kmax sessions (a degraded run's unobserved
// sessions carry no signature and must not vote).
// Invariant: a failing cell is never removed as long as the single-fault
// assumption's error signatures are consistent (syndrome cancellation of
// distinct cells is the only escape, and requires a 2^-degree collision).
//
// Every pass of the fixpoint visits the failing sessions in partition-
// then-slot order, because which session confirms a cell first can decide
// its syndrome. A session's decision does not depend on the order of its
// cells. Inside the loop pruned only shrinks and confirmed only grows, so
// each session's candidates are listed once, from the candidate set, and
// a session without unconfirmed candidates is dropped: it can never act.
func (d *Diagnoser) prune(v *bist.Verdicts, cand *bitset.Set, kmax int) (pruned, confirmed *bitset.Set) {
	pruned = cand.Clone()
	confirmed = bitset.New(d.cfg.NumCells)
	if len(v.ErrSig) == 0 {
		return pruned, confirmed
	}
	kmax = min(kmax, len(v.Fail))
	sc := d.scratch.Get().(*pruneScratch)
	defer d.scratch.Put(sc)
	// Place every candidate in each failing session it lies in, then
	// group the placements by session id with a counting sort.
	stride := 0
	for _, row := range v.Fail[:kmax] {
		stride = max(stride, len(row))
	}
	sc.start = append(sc.start[:0], make([]int32, kmax*stride+1)...)
	sc.at = sc.at[:0]
	cand.ForEach(func(c int) {
		for t := 0; t < kmax; t++ {
			if g := d.slotOf(c, t); v.Fail[t][g] {
				sc.at = append(sc.at, placement{int32(t*stride + g), int32(c)})
				sc.start[t*stride+g]++
			}
		}
	})
	for id := 1; id < len(sc.start); id++ {
		sc.start[id] += sc.start[id-1]
	}
	// start[id] is now the end of session id; filling back to front moves
	// it down to the session's start.
	sc.cells = slices.Grow(sc.cells[:0], len(sc.at))[:len(sc.at)]
	for i := len(sc.at) - 1; i >= 0; i-- {
		p := sc.at[i]
		sc.start[p.id]--
		sc.cells[sc.start[p.id]] = p.cell
	}
	sessions := sc.sessions[:0]
	for id := 0; id < kmax*stride; id++ {
		if lo, hi := sc.start[id], sc.start[id+1]; hi > lo {
			sessions = append(sessions, pruneSession{sig: v.ErrSig[id/stride][id%stride], cells: sc.cells[lo:hi]})
		}
	}
	sc.sessions = sessions
	for changed := true; changed; {
		changed = false
		live := sessions[:0]
		for _, s := range sessions {
			residual := s.sig
			unknown, lone := 0, 0
			kept := s.cells[:0]
			for _, c := range s.cells {
				if !pruned.Contains(int(c)) {
					continue
				}
				kept = append(kept, c)
				if confirmed.Contains(int(c)) {
					residual ^= sc.syndrome[c]
				} else {
					unknown++
					lone = int(c)
				}
			}
			s.cells = kept
			switch {
			case unknown == 1 && residual != 0:
				// Exactly one unexplained candidate: it must be failing and
				// its syndrome is the residual.
				sc.syndrome[lone] = residual
				confirmed.Add(lone)
				changed = true
			case unknown > 0 && residual == 0:
				// The observed error signature is fully explained by
				// confirmed cells; the remaining candidates captured no
				// error here and cannot be failing.
				for _, c := range s.cells {
					if !confirmed.Contains(int(c)) {
						pruned.Remove(int(c))
					}
				}
				changed = true
			case unknown > 0:
				live = append(live, s)
			}
		}
		sessions = live
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

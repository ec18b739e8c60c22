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
	"math/bits"
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
//
// Every candidate set is computed as set algebra over whole words. The
// Diagnoser holds one cell mask per (partition, verdict slot): bit c of
// the mask of slot g of partition t is set when cell c lies in that slot.
// A mask is stored only over the word span its cells occupy, so a slot
// confined to one chain of contiguous cell ids costs that chain's words,
// not the whole configuration's (DESIGN.md §21).
type Diagnoser struct {
	cfg   scan.Config
	parts [][]partition.Partition // parts[chain][t]
	// perChain mirrors the engine's compactor arrangement: when set,
	// verdict slot chain*NumGroups+g holds chain's group g.
	perChain bool
	// slots is the verdict slot count of the widest partition, from the
	// group counts; masks[t*slots+g] locates the cell mask of slot g of
	// partition t in words.
	slots int
	masks []slotMask
	words []uint64
	// loc[cell] is the cell's chain and position, for slotOf.
	loc []cellLoc
	// scratch pools pruneInto's *pruneScratch.
	scratch sync.Pool
}

// cellLoc is a cell's place in the scan configuration.
type cellLoc struct{ chain, pos int32 }

// slotMask locates one verdict slot's cell mask: words[at:at+n] hold the
// mask's words off through off+n−1, that is the bits of cells 64·off up
// to 64·(off+n)−1. Every other word of the mask is zero.
type slotMask struct{ at, off, n int32 }

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
	d := &Diagnoser{cfg: cfg, parts: parts, perChain: perChain, loc: make([]cellLoc, cfg.NumCells)}
	for ci, ch := range cfg.Chains {
		for pos, cell := range ch.Cells {
			d.loc[cell] = cellLoc{int32(ci), int32(pos)}
		}
	}
	d.scratch.New = func() any { return new(pruneScratch) }
	if err := d.buildMasks(max(k, 0)); err != nil {
		return nil, err
	}
	return d, nil
}

// buildMasks lays out the slot masks of the k partitions: one pass finds
// each slot's word span, a second sets its cells' bits in one shared
// word array. The slot count comes from the partitions' group counts.
func (d *Diagnoser) buildMasks(k int) error {
	for t := 0; t < k; t++ {
		for ci := range d.cfg.Chains {
			p := &d.parts[ci][t]
			_, base := d.chainSlots(ci, t)
			d.slots = max(d.slots, base+p.NumGroups)
		}
	}
	d.masks = make([]slotMask, k*d.slots)
	for t := 0; t < k; t++ {
		masks := d.masks[t*d.slots : (t+1)*d.slots]
		for ci, ch := range d.cfg.Chains {
			groupOf, base := d.chainSlots(ci, t)
			ng := d.parts[ci][t].NumGroups
			for pos, cell := range ch.Cells {
				g := groupOf[pos]
				if g < 0 || g >= ng {
					return fmt.Errorf("diagnosis: chain %d partition %d puts position %d in group %d of %d",
						ci, t, pos, g, ng)
				}
				m := &masks[base+g]
				w := int32(cell / 64)
				if m.n == 0 {
					m.off, m.n = w, 1
					continue
				}
				lo := min(m.off, w)
				m.off, m.n = lo, max(m.off+m.n, w+1)-lo
			}
		}
	}
	total := int32(0)
	for i := range d.masks {
		d.masks[i].at = total
		total += d.masks[i].n
	}
	d.words = make([]uint64, total)
	for t := 0; t < k; t++ {
		masks := d.masks[t*d.slots : (t+1)*d.slots]
		for ci, ch := range d.cfg.Chains {
			groupOf, base := d.chainSlots(ci, t)
			for pos, cell := range ch.Cells {
				m := masks[base+groupOf[pos]]
				d.words[int(m.at)+cell/64-int(m.off)] |= 1 << uint(cell%64)
			}
		}
	}
	return nil
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

// chainSlots returns partition t's group table for chain ci and the
// verdict slot of the chain's group 0: position pos lies in verdict slot
// base+groupOf[pos].
func (d *Diagnoser) chainSlots(ci, t int) (groupOf []int, base int) {
	p := &d.parts[ci][t]
	if d.perChain {
		return p.GroupOf, ci * p.NumGroups
	}
	return p.GroupOf, 0
}

// groupOf returns the verdict slot of a cell in partition t.
func (d *Diagnoser) groupOf(chain, pos, t int) int {
	groupOf, base := d.chainSlots(chain, t)
	return base + groupOf[pos]
}

// slotOf returns the verdict slot of a cell in partition t.
func (d *Diagnoser) slotOf(cell, t int) int {
	l := d.loc[cell]
	return d.groupOf(int(l.chain), int(l.pos), t)
}

// mask returns the stored words of slot g of partition t and the index of
// the first of them; a slot past the widest partition's last is empty.
func (d *Diagnoser) mask(t, g int) (off int, words []uint64) {
	if g >= d.slots {
		return 0, nil
	}
	m := d.masks[t*d.slots+g]
	return int(m.off), d.words[m.at : m.at+m.n]
}

// orMask ORs the mask of slot g of partition t into acc, which holds the
// words base through base+len(acc)−1.
func (d *Diagnoser) orMask(acc []uint64, base, t, g int) {
	off, words := d.mask(t, g)
	lo, hi := max(off, base), min(off+len(words), base+len(acc))
	if lo >= hi {
		return
	}
	dst := acc[lo-base : hi-base]
	for i, w := range words[lo-off : hi-off] {
		dst[i] |= w
	}
}

// numWords returns the word count of a set over every cell.
func (d *Diagnoser) numWords() int { return (d.cfg.NumCells + 63) / 64 }

// allCellsInto sets dst to every scanned cell.
func (d *Diagnoser) allCellsInto(dst *bitset.Set) {
	dst.Reset()
	for _, ch := range d.cfg.Chains {
		for _, cell := range ch.Cells {
			dst.Add(cell)
		}
	}
}

// NewResult returns a Result whose three sets are sized over every cell:
// the buffer the Into forms below write, which a caller reuses across
// faults.
func (d *Diagnoser) NewResult() *Result {
	return &Result{
		Candidates: bitset.New(d.cfg.NumCells),
		Pruned:     bitset.New(d.cfg.NumCells),
		Confirmed:  bitset.New(d.cfg.NumCells),
	}
}

// chunkWords bounds the stack buffers of the word-parallel passes, which
// walk the cell words chunkWords (8,192 cells) at a time.
const chunkWords = 128

// intersect runs inclusion–exclusion over the first k ≥ 1 partitions as
// word algebra: per partition it ORs the masks of the failing slots and
// ANDs that into a running set. When out is non-nil (numWords long) the
// set after k partitions overwrites it, since the first partition writes
// every word; when counts is non-nil (k long) the popcount after t+1
// partitions is added to counts[t]. Within a chunk, later partitions only
// touch the span of words the running set still holds.
func (d *Diagnoser) intersect(v *bist.Verdicts, k int, out []uint64, counts []int) {
	var runBuf, accBuf [chunkWords]uint64
	nw := d.numWords()
	for lo := 0; lo < nw; lo += chunkWords {
		hi := min(lo+chunkWords, nw)
		run := runBuf[:hi-lo]
		if out != nil {
			run = out[lo:hi]
		}
		a, b := lo, hi // the running set is zero outside words a..b−1
		for t := 0; t < k; t++ {
			acc := accBuf[a-lo : b-lo]
			clear(acc)
			for g, fail := range v.Fail[t] {
				if fail {
					d.orMask(acc, a, t, g)
				}
			}
			cur := run[a-lo : b-lo]
			if t == 0 {
				copy(cur, acc)
			} else {
				for i := range cur {
					cur[i] &= acc[i]
				}
			}
			for a < b && run[a-lo] == 0 {
				a++
			}
			for b > a && run[b-1-lo] == 0 {
				b--
			}
			if a == b {
				break
			}
			if counts != nil {
				n := 0
				for _, w := range run[a-lo : b-lo] {
					n += bits.OnesCount64(w)
				}
				counts[t] += n
			}
		}
	}
}

// Candidates applies inclusion–exclusion over the first k partitions (k ≤
// verdict count): a cell remains a candidate iff its group failed in every
// one of those partitions. Using a prefix lets one verdict set answer "how
// good is the resolution after k partitions?" for all k.
//
// The candidate set is the AND over the partitions of the OR of each
// partition's failing-slot masks.
func (d *Diagnoser) Candidates(v *bist.Verdicts, k int) *bitset.Set {
	cand := bitset.New(d.cfg.NumCells)
	d.candidatesInto(v, k, cand)
	return cand
}

// candidatesInto writes Candidates(v, k) into dst, a set sized over every
// cell (as NewResult's are), whatever it held before.
func (d *Diagnoser) candidatesInto(v *bist.Verdicts, k int, dst *bitset.Set) {
	k = min(k, len(v.Fail))
	if k <= 0 {
		d.allCellsInto(dst)
		return
	}
	d.intersect(v, k, dst.Words(), nil)
}

// CandidateCounts fills counts[k-1] with Candidates(v, k).Len() for every
// prefix length k in 1..len(counts), without allocating: the running
// intersection of Candidates lives in a stack buffer, and its popcount is
// taken after each partition.
//
//allochot:entry
func (d *Diagnoser) CandidateCounts(v *bist.Verdicts, counts []int) {
	clear(counts)
	kmax := min(len(counts), len(v.Fail))
	if kmax == 0 {
		return
	}
	d.intersect(v, kmax, nil, counts[:kmax])
	// Candidates clamps k to the verdict count, so any tail entries equal
	// the full-prefix count.
	for k := kmax; k < len(counts); k++ {
		counts[k] = counts[kmax-1]
	}
}

// Diagnose runs the full flow over all partitions: intersection candidates,
// then superposition pruning.
func (d *Diagnoser) Diagnose(v *bist.Verdicts) *Result {
	r := d.NewResult()
	d.DiagnoseInto(v, r)
	return r
}

// DiagnoseInto writes Diagnose(v) into r, a NewResult buffer, whatever it
// held before.
func (d *Diagnoser) DiagnoseInto(v *bist.Verdicts, r *Result) {
	d.candidatesInto(v, len(v.Fail), r.Candidates)
	d.pruneInto(v, r.Candidates, r.Pruned, r.Confirmed)
}

// pruneScratch holds pruneInto's reusable buffers.
type pruneScratch struct {
	// unk[id] and res[id] are the unexplained-candidate count and the
	// residual signature of failing session id = t×stride+g, valid for
	// the sessions prune lists.
	unk []int32
	res []uint64
	// live lists the ids of the sessions that can still act.
	live []int32
}

// pruneInto refines the candidate set cand, which must be Candidates over
// every partition of v, using error-signature superposition, and writes
// the refined set into pruned and the cells it proves failing into
// confirmed; both are sized as cand and overwritten.
// Invariant: a failing cell is never removed as long as the single-fault
// assumption's error signatures are consistent (syndrome cancellation of
// distinct cells is the only escape, and requires a 2^-degree collision).
//
// Every failing session holding candidates keeps two counters: unk, its
// number of unconfirmed candidates still in pruned, and res, its error
// signature XOR the syndromes of its confirmed cells. Confirming or
// removing a cell updates them in the one session per partition that
// holds the cell, found through slotOf, so a session's decision — which
// depends only on (unk, res) — costs O(1). Only a session that acts walks
// its cells, as the words of mask ∧ pruned ∧ ¬confirmed.
//
// Every pass of the fixpoint visits the sessions in partition-then-slot
// order, because which session confirms a cell first can decide its
// syndrome. A session with unk = 0 can never act again (pruned only
// shrinks and confirmed only grows), so it is dropped.
func (d *Diagnoser) pruneInto(v *bist.Verdicts, cand, pruned, confirmed *bitset.Set) {
	copy(pruned.Words(), cand.Words())
	confirmed.Reset()
	if len(v.ErrSig) == 0 {
		return
	}
	kmax := len(v.Fail)
	stride := 0
	for _, row := range v.Fail {
		stride = max(stride, len(row))
	}
	sc := d.scratch.Get().(*pruneScratch)
	if n := kmax * stride; cap(sc.unk) < n {
		sc.unk, sc.res = make([]int32, n), make([]uint64, n)
	}
	cw, pw, fw := cand.Words(), pruned.Words(), confirmed.Words()
	// Only the words ca..cb−1 of cand hold candidates.
	ca, cb := 0, len(cw)
	for ca < cb && cw[ca] == 0 {
		ca++
	}
	for cb > ca && cw[cb-1] == 0 {
		cb--
	}
	live := sc.live[:0]
	for t, row := range v.Fail {
		for g, fail := range row {
			if !fail {
				continue
			}
			off, words := d.mask(t, g)
			n := 0
			for i := max(off, ca); i < min(off+len(words), cb); i++ {
				n += bits.OnesCount64(words[i-off] & cw[i])
			}
			if n > 0 {
				id := t*stride + g
				sc.unk[id], sc.res[id] = int32(n), v.ErrSig[t][g]
				live = append(live, int32(id))
			}
		}
	}
	// settle records that cell c is no longer an unconfirmed candidate:
	// confirmed with syndrome syn, or removed with syn = 0.
	settle := func(c int, syn uint64) {
		for t := 0; t < kmax; t++ {
			id := t*stride + d.slotOf(c, t)
			sc.unk[id]--
			sc.res[id] ^= syn
		}
	}
	for changed := true; changed; {
		changed = false
		kept := live[:0]
		for _, id := range live {
			unk, res := sc.unk[id], sc.res[id]
			if unk == 0 {
				continue
			}
			if unk > 1 && res != 0 {
				kept = append(kept, id)
				continue
			}
			// The session acts on its unconfirmed candidates. With one
			// and a nonzero residual, that cell must be failing and its
			// syndrome is the residual. With a zero residual, the observed
			// error signature is fully explained by confirmed cells; the
			// remaining candidates captured no error here and cannot be
			// failing.
			changed = true
			off, words := d.mask(int(id)/stride, int(id)%stride)
			for i, m := range words {
				for w := m & pw[off+i] &^ fw[off+i]; w != 0; w &= w - 1 {
					c := (off+i)*64 + bits.TrailingZeros64(w)
					if res != 0 {
						confirmed.Add(c)
						settle(c, res)
					} else {
						pruned.Remove(c)
						settle(c, 0)
					}
				}
			}
		}
		live = kept
	}
	sc.live = live
	d.scratch.Put(sc)
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

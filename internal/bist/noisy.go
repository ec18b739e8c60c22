package bist

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/noise"
	"repro/internal/sim"
)

// RetryPolicy schedules repeated executions of every BIST session under an
// unreliable tester. Each session runs 1+MaxRetries times; executions that
// abort contribute nothing, and the completed executions vote on the
// session's tri-state verdict:
//
//   - Fail when a strict majority of completed executions observed a
//     signature mismatch (majority voting over the repeated signatures
//     absorbs occasional verdict flips);
//   - Pass only when every completed execution matched the golden
//     signature (a unanimous pass — under an intermittent fault a lone
//     failing execution is strong evidence, so a mixed outcome without a
//     failing majority must not be read as a clean pass);
//   - Unknown otherwise (no execution completed, or the executions
//     disagree without a failing majority).
type RetryPolicy struct {
	// MaxRetries is the number of extra executions of each session beyond
	// the first. Zero keeps the single-shot schedule of a perfect-tester
	// run.
	MaxRetries int
}

// Runs returns the number of executions scheduled per session.
func (rp RetryPolicy) Runs() int {
	if rp.MaxRetries < 0 {
		return 1
	}
	return 1 + rp.MaxRetries
}

// Reliability summarises how much tester noise one diagnosis run absorbed
// and what the retry budget cost — the per-run health report the robust
// path attaches to its result.
type Reliability struct {
	// Sessions is the number of scheduled sessions (partitions × verdict
	// slots).
	Sessions int
	// Executions is the total session-execution budget actually spent,
	// including retries (Sessions × RetryPolicy.Runs()).
	Executions int
	// Aborted counts executions that yielded no signature.
	Aborted int
	// Completed counts executions that produced a signature.
	Completed int
	// Unknown counts sessions whose final verdict is Unknown.
	Unknown int
	// Disagreed counts completed executions whose pass/fail observation
	// disagreed with their session's final verdict — the raw material for
	// the flip-rate estimate.
	Disagreed int
}

// Retried returns the extra executions beyond one per session.
func (r *Reliability) Retried() int { return r.Executions - r.Sessions }

// EstimatedFlipRate estimates the tester's verdict-flip rate as the
// fraction of completed executions that disagreed with their session's
// final verdict. Under a deterministic fault this converges on the true
// flip probability; under an intermittent fault it also absorbs genuine
// pattern-to-pattern variation and reads as an upper bound.
func (r *Reliability) EstimatedFlipRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Disagreed) / float64(r.Completed)
}

// Merge accumulates another run's counters (e.g. across the faults of a
// study).
func (r *Reliability) Merge(o *Reliability) {
	r.Sessions += o.Sessions
	r.Executions += o.Executions
	r.Aborted += o.Aborted
	r.Completed += o.Completed
	r.Unknown += o.Unknown
	r.Disagreed += o.Disagreed
}

func (r *Reliability) String() string {
	return fmt.Sprintf("%d sessions, %d executions (%d retries), %d aborted, %d unknown verdicts, est. flip rate %.4f",
		r.Sessions, r.Executions, r.Retried(), r.Aborted, r.Unknown, r.EstimatedFlipRate())
}

// sessionTable lists, per session, the patterns on which the session
// captures an error, in ascending order, each with the XOR of the
// syndromes of that pattern's error bits in the session. By MISR
// linearity an execution's error signature is the XOR of the entries
// whose pattern's activation coin fires, so the error bits of a pattern
// are folded once, before any coin is drawn. With nb blocks, mask[s·nb+bi]
// marks the patterns of block bi with an error in session
// s = t×VerdictGroups()+slot, and at[k] counts the entries before mask
// word k (at[len(mask)] all of them), so session s holds
// pat[at[s·nb]:at[(s+1)·nb]] and the same range of syn.
type sessionTable struct {
	nb    int
	mask  []uint64
	at    []int32
	pat   []int32
	syn   []uint64
	execs []exec // one session's executions, scratch of the vote
}

// exec is one completed session execution: its pass/fail observation and
// the signature it reported.
type exec struct {
	fail bool
	sig  uint64
}

// session returns session s's patterns and their syndromes.
func (c *sessionTable) session(s int) ([]int32, []uint64) {
	lo, hi := c.at[s*c.nb], c.at[(s+1)*c.nb]
	return c.pat[lo:hi], c.syn[lo:hi]
}

// NoisyVerdicts derives tri-state session verdicts for a fault under an
// unreliable tester. The deterministic error stream of Verdicts is the
// substrate; on top of it, each session execution draws per-pattern
// activation coins (intermittent fault), may abort, and may flip its
// reported signature, and the RetryPolicy's repeated executions vote on
// the outcome. With a disabled model and zero retries the result equals
// Verdicts bit-for-bit (no Unknowns, identical Fail and ErrSig).
//
// Reliability reports the session budget spent and the noise absorbed.
// It scans every cell of every block for the failing cells and allocates
// the Verdicts: the allocating form of NoisyCellVerdictsInto, which takes
// the failing cells from a caller that already holds them.
func (e *Engine) NoisyVerdicts(good, faulty []*sim.Response, blocks []*sim.Block, m noise.Model, rp RetryPolicy) (*Verdicts, *Reliability) {
	cells := e.failingCells(good, faulty, blocks)
	defer e.cellSets.Put(cells)
	v := e.NewVerdicts()
	return v, e.NoisyCellVerdictsInto(cells, good, faulty, blocks, m, rp, v)
}

// NoisyCellVerdictsInto recomputes v in place as NoisyVerdicts would over
// a known failing-cell set, and returns the run's Reliability. cells must
// hold every cell whose faulty words differ from the good ones (the
// simulator's Result.FailingCells), and only those cells' words are read.
// A cell without an error bit adds nothing, so a superset gives the same
// result. v must come from NewVerdicts on this engine; its Unknown rows
// are attached on first use and reused after, so in the steady state the
// returned Reliability is the only allocation.
func (e *Engine) NoisyCellVerdictsInto(cells *bitset.Set, good, faulty []*sim.Response, blocks []*sim.Block, m noise.Model, rp RetryPolicy, v *Verdicts) *Reliability {
	c := e.sessionTable(cells, good, faulty, blocks)
	defer e.tables.Put(c)
	if v.Unknown == nil {
		v.Unknown = rows(make([]bool, len(v.Fail)*e.vgroups), e.vgroups)
	}
	for t := range v.Fail {
		clear(v.Fail[t])
		clear(v.ErrSig[t])
		clear(v.Unknown[t])
	}
	rel := &Reliability{Sessions: e.plan.Partitions * e.vgroups}
	runs := rp.Runs()
	execs := c.execs
	streams := m.Streams()
	for t := 0; t < e.plan.Partitions; t++ {
		part := streams.Fold(t)
		for slot := 0; slot < e.vgroups; slot++ {
			coins := part.Fold(slot)
			pats, syns := c.session(t*e.vgroups + slot)
			execs = execs[:0]
			for a := 0; a < runs; a++ {
				rel.Executions++
				if coins.Aborts(a) {
					rel.Aborted++
					continue
				}
				sig, active := coins.Active(a, pats, syns)
				fail := sig != 0
				if e.plan.Ideal {
					fail = active
				}
				if coins.Flips(a) {
					fail = !fail
					if fail {
						sig = coins.Corrupt(a)
					} else {
						sig = 0
					}
				}
				execs = append(execs, exec{fail, sig})
				rel.Completed++
			}
			nFail := 0
			for _, x := range execs {
				if x.fail {
					nFail++
				}
			}
			switch {
			case 2*nFail > len(execs):
				// Majority fail: report the modal failing signature.
				v.Fail[t][slot] = true
				best, bestCount := uint64(0), 0
				for i, x := range execs {
					if !x.fail {
						continue
					}
					count := 0
					for _, y := range execs[i:] {
						if y.fail && y.sig == x.sig {
							count++
						}
					}
					if count > bestCount {
						best, bestCount = x.sig, count
					}
				}
				v.ErrSig[t][slot] = best
				rel.Disagreed += len(execs) - nFail
			case nFail == 0 && len(execs) > 0:
				// Unanimous pass; Fail and ErrSig stay zero.
			default:
				// No completed execution, or disagreement without a
				// failing majority: no usable verdict.
				v.Unknown[t][slot] = true
				rel.Unknown++
				rel.Disagreed += nFail
			}
		}
	}
	c.execs = execs
	return rel
}

// sessionTable builds the table of the error bits of cells, in two walks
// over their words. The first ORs each failing cell's error word of a
// block into the pattern mask of the cell's session in every partition,
// one word operation per cell and partition; prefix popcounts over the
// masks then give every (session, block) its first entry. The second puts
// each error bit of pattern p of a block at its (session, block) offset
// plus the popcount of the mask below p, and XORs its syndrome there. The
// result comes from e.tables; the caller puts it back.
func (e *Engine) sessionTable(cells *bitset.Set, good, faulty []*sim.Response, blocks []*sim.Block) *sessionTable {
	c, _ := e.tables.Get().(*sessionTable)
	if c == nil {
		c = new(sessionTable)
	}
	e.checkClocks(blocks)
	nb := len(blocks)
	words := e.plan.Partitions * e.vgroups * nb
	c.nb = nb
	c.mask = append(c.mask[:0], make([]uint64, words)...)
	for bi, b := range blocks {
		mask := b.Mask()
		g, f := good[bi].Next, faulty[bi].Next
		cells.ForEach(func(cell int) {
			d := (g[cell] ^ f[cell]) & mask
			if d == 0 {
				return
			}
			chain, pos := e.chainOf[cell], e.posOf[cell]
			for t := range e.parts[chain] {
				c.mask[e.session(chain, pos, t)*nb+bi] |= d
			}
		})
	}
	c.at = slices.Grow(c.at[:0], words+1)[:words+1]
	n := int32(0)
	for k, w := range c.mask {
		c.at[k] = n
		n += int32(bits.OnesCount64(w))
	}
	c.at[words] = n
	c.pat = slices.Grow(c.pat[:0], int(n))[:n]
	c.syn = slices.Grow(c.syn[:0], int(n))[:n]
	clear(c.syn)
	patternBase := 0
	for bi, b := range blocks {
		mask := b.Mask()
		g, f := good[bi].Next, faulty[bi].Next
		cells.ForEach(func(cell int) {
			d := (g[cell] ^ f[cell]) & mask
			if d == 0 {
				return
			}
			chain, pos := e.chainOf[cell], e.posOf[cell]
			for ; d != 0; d &= d - 1 {
				j := bits.TrailingZeros64(d)
				p := patternBase + j
				syn := e.bitSyndrome(p, chain, pos)
				for t := range e.parts[chain] {
					k := e.session(chain, pos, t)*nb + bi
					i := c.at[k] + int32(bits.OnesCount64(c.mask[k]&(1<<j-1)))
					c.pat[i] = int32(p)
					c.syn[i] ^= syn
				}
			}
		})
		patternBase += b.N
	}
	return c
}

// session returns the session (t×VerdictGroups()+slot) that observes
// position pos of a chain in partition t.
func (e *Engine) session(chain, pos, t int) int {
	return t*e.vgroups + e.verdictIndex(chain, e.parts[chain][t].GroupOf[pos])
}

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

// errBit is one error bit of a fault's responses: the pattern it occurs
// on (whose activation coin gates it), the cell that captures it, and its
// syndrome, the bit's contribution to every error signature it enters.
type errBit struct {
	pat, cell int32
	syn       uint64
}

// contribs lists every error bit of a fault once, and every session's
// error bits as indices into that list, all sessions in one arena:
// session s = t×VerdictGroups()+slot holds at[start[s]:start[s+1]], in the
// order the walk over the responses meets its error bits.
type contribs struct {
	bits  []errBit
	start []int32
	at    []int32
}

// session returns the indices into bits of session s's error bits.
func (c *contribs) session(s int) []int32 { return c.at[c.start[s]:c.start[s+1]] }

// NoisyVerdicts derives tri-state session verdicts for a fault under an
// unreliable tester. The deterministic error stream of Verdicts is the
// substrate; on top of it, each session execution draws per-pattern
// activation coins (intermittent fault), may abort, and may flip its
// reported signature, and the RetryPolicy's repeated executions vote on
// the outcome. With a disabled model and zero retries the result equals
// Verdicts bit-for-bit (no Unknowns, identical Fail and ErrSig).
//
// Reliability reports the session budget spent and the noise absorbed.
// It scans every cell of every block for the failing cells;
// NoisyCellVerdicts takes them from a caller that already holds them.
func (e *Engine) NoisyVerdicts(good, faulty []*sim.Response, blocks []*sim.Block, m noise.Model, rp RetryPolicy) (*Verdicts, *Reliability) {
	cells := e.failingCells(good, faulty, blocks)
	defer e.cellSets.Put(cells)
	return e.NoisyCellVerdicts(cells, good, faulty, blocks, m, rp)
}

// NoisyCellVerdicts is NoisyVerdicts over a known failing-cell set: cells
// must hold every cell whose faulty words differ from the good ones (the
// simulator's Result.FailingCells), and only those cells' words are read.
// A cell without an error bit adds nothing, so a superset gives the same
// result.
func (e *Engine) NoisyCellVerdicts(cells *bitset.Set, good, faulty []*sim.Response, blocks []*sim.Block, m noise.Model, rp RetryPolicy) (*Verdicts, *Reliability) {
	c := e.sessionContribs(cells, good, faulty, blocks)
	defer e.arenas.Put(c)
	v := e.NewVerdicts()
	v.Unknown = rows(make([]bool, e.plan.Partitions*e.vgroups), e.vgroups)
	rel := &Reliability{Sessions: e.plan.Partitions * e.vgroups}
	runs := rp.Runs()
	type exec struct {
		fail bool
		sig  uint64
	}
	execs := make([]exec, 0, runs)
	for t := 0; t < e.plan.Partitions; t++ {
		for slot := 0; slot < e.vgroups; slot++ {
			coins := m.Session(t, slot)
			contrib := c.session(t*e.vgroups + slot)
			execs = execs[:0]
			for a := 0; a < runs; a++ {
				rel.Executions++
				if coins.Aborts(a) {
					rel.Aborted++
					continue
				}
				var sig uint64
				active := false
				if len(contrib) > 0 {
					attempt := coins.Attempt(a)
					for _, i := range contrib {
						if b := &c.bits[i]; coins.ActiveAt(attempt, int(b.pat)) {
							sig ^= b.syn
							active = true
						}
					}
				}
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
	return v, rel
}

// sessionContribs gathers, per session, the error bits it captures, each
// with the pattern it occurs on and its syndrome — the sparse substrate
// NoisyVerdicts replays once per session execution under fresh activation
// coins. One walk over the words of cells, block by block and in ascending
// cell order within a block, lists the error bits and counts each bit's
// session in every partition; a counting sort then fills the arena. The
// result comes from e.arenas; the caller puts it back.
func (e *Engine) sessionContribs(cells *bitset.Set, good, faulty []*sim.Response, blocks []*sim.Block) *contribs {
	c, _ := e.arenas.Get().(*contribs)
	if c == nil {
		c = new(contribs)
	}
	c.bits = c.bits[:0]
	c.start = append(c.start[:0], make([]int32, e.plan.Partitions*e.vgroups+1)...)
	e.checkClocks(blocks)
	patternBase := 0
	for bi, b := range blocks {
		mask := b.Mask()
		g, f := good[bi].Next, faulty[bi].Next
		cells.ForEach(func(cell int) {
			chain, pos := e.chainOf[cell], e.posOf[cell]
			for d := (g[cell] ^ f[cell]) & mask; d != 0; d &= d - 1 {
				p := patternBase + bits.TrailingZeros64(d)
				c.bits = append(c.bits, errBit{pat: int32(p), cell: int32(cell), syn: e.bitSyndrome(p, chain, pos)})
				for t := range e.parts[chain] {
					c.start[e.session(chain, pos, t)]++
				}
			}
		})
		patternBase += b.N
	}
	for s := 1; s < len(c.start); s++ {
		c.start[s] += c.start[s-1]
	}
	// start[s] is now the end of session s; filling back to front moves it
	// down to the session's start and keeps each session in walk order.
	n := c.start[len(c.start)-1]
	c.at = slices.Grow(c.at[:0], int(n))[:n]
	for i := len(c.bits) - 1; i >= 0; i-- {
		chain, pos := e.chainOf[c.bits[i].cell], e.posOf[c.bits[i].cell]
		for t := range e.parts[chain] {
			s := e.session(chain, pos, t)
			c.start[s]--
			c.at[c.start[s]] = int32(i)
		}
	}
	return c
}

// session returns the session (t×VerdictGroups()+slot) that observes
// position pos of a chain in partition t.
func (e *Engine) session(chain, pos, t int) int {
	return t*e.vgroups + e.verdictIndex(chain, e.parts[chain][t].GroupOf[pos])
}

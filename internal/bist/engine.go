package bist

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitset"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

// GenerateBlocks expands nPatterns pseudorandom test patterns for a DUT
// with nPI primary inputs and nCells scan cells from the PRPG. For each
// pattern the PRPG first supplies the scan-in bits (cell 0 first) and then
// the primary-input bits, mirroring a scan-BIST controller that shifts the
// chain full and then applies the PI part. Patterns are returned transposed
// into 64-wide simulation blocks. The bits come from LFSR.StepInto, which
// steps the register in a local variable for a whole cell or PI run; prpg
// ends in the state nPatterns·(nCells+nPI) Steps would leave it in, so a
// caller may keep stepping it.
func GenerateBlocks(prpg *lfsr.LFSR, nPI, nCells, nPatterns int) []*sim.Block {
	var blocks []*sim.Block
	for done := 0; done < nPatterns; done += 64 {
		n := nPatterns - done
		if n > 64 {
			n = 64
		}
		b := &sim.Block{N: n, PI: make([]uint64, nPI), State: make([]uint64, nCells)}
		for j := 0; j < n; j++ {
			prpg.StepInto(b.State, uint(j))
			prpg.StepInto(b.PI, uint(j))
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// Plan configures a diagnosis run: which scheme partitions the chains, into
// how many groups, how many partitions, and how responses are compacted.
type Plan struct {
	Scheme     partition.Scheme
	Groups     int // groups per partition (b)
	Partitions int // number of partitions (sessions = Groups × Partitions)
	// MISRPoly is the compaction polynomial; zero selects degree 32. (The
	// pattern and partition LFSRs follow the paper's degree 16, but a
	// 16-bit MISR over session streams of ~10^6 clocks wraps its syndrome
	// space — x^e mod p has period 2^16−1 — and aliases measurably; 32 bits
	// matches what production BIST uses for streams of this length.)
	MISRPoly lfsr.Poly
	// Ideal bypasses the MISR: a group fails iff any of its cells captures
	// any error. The real MISR can alias (a nonzero error stream compacting
	// to the fault-free signature); Ideal mode isolates that effect for the
	// ablation study.
	Ideal bool
	// SharedCompactor merges all chains into one MISR, so a (partition,
	// group) session yields a single verdict across every chain. The
	// default (false) gives each chain its own compactor — the usual
	// multi-chain BIST arrangement — so verdicts are per (chain, group)
	// and resolution scales with chain length rather than total cells.
	// Irrelevant for a single chain.
	SharedCompactor bool
}

func (p Plan) withDefaults() Plan {
	if p.MISRPoly == 0 {
		p.MISRPoly = lfsr.MustPrimitivePoly(32)
	}
	return p
}

// Normalized returns the plan with defaults applied (zero MISRPoly →
// degree 32), the form NewEngine uses internally. Callers that key caches
// on plan contents should normalize first so equal effective plans
// compare equal.
func (p Plan) Normalized() Plan { return p.withDefaults() }

// Verdict is the tri-state outcome of one BIST session. A perfect tester
// only ever produces Pass or Fail; Unknown appears when an unreliable
// tester aborts every execution of a session or its repeated executions
// disagree without a decidable majority.
type Verdict uint8

const (
	VerdictPass Verdict = iota
	VerdictFail
	VerdictUnknown
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictFail:
		return "fail"
	case VerdictUnknown:
		return "unknown"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Verdicts holds the outcome of every BIST session of a diagnosis run.
// Fail[t][g] reports whether the signature for group g of partition t
// differed from the fault-free signature; ErrSig[t][g] is the error
// signature itself (observed XOR fault-free, which MISR linearity makes
// equal to the signature of the group-masked error stream). The error
// signatures drive superposition-style pruning.
//
// Unknown[t][g] marks sessions that produced no usable verdict under an
// unreliable tester (every execution aborted, or votes tied); it is nil
// for deterministic runs, where every session has a Pass/Fail outcome.
// When Unknown[t][g] is set, Fail[t][g] is false and ErrSig[t][g] is zero.
type Verdicts struct {
	Fail    [][]bool
	ErrSig  [][]uint64
	Unknown [][]bool
}

// State returns the tri-state verdict of session (t, g).
func (v *Verdicts) State(t, g int) Verdict {
	if v.Unknown != nil && v.Unknown[t][g] {
		return VerdictUnknown
	}
	if v.Fail[t][g] {
		return VerdictFail
	}
	return VerdictPass
}

// NumFailing returns the number of failing (partition, group) sessions.
func (v *Verdicts) NumFailing() int {
	n := 0
	for _, row := range v.Fail {
		for _, f := range row {
			if f {
				n++
			}
		}
	}
	return n
}

// NumUnknown returns the number of sessions without a usable verdict.
func (v *Verdicts) NumUnknown() int {
	n := 0
	for _, row := range v.Unknown {
		for _, u := range row {
			if u {
				n++
			}
		}
	}
	return n
}

// HasUnknown reports whether any session lacks a verdict.
func (v *Verdicts) HasUnknown() bool { return v.NumUnknown() > 0 }

// Prefix returns the verdicts of the first k partitions as a row view
// sharing v's storage, and v itself when k covers every partition. A
// diagnosis of Prefix(k) is the diagnosis after k partitions.
func (v *Verdicts) Prefix(k int) *Verdicts {
	if k >= len(v.Fail) {
		return v
	}
	k = max(k, 0)
	p := &Verdicts{Fail: v.Fail[:k], ErrSig: v.ErrSig[:k]}
	if v.Unknown != nil {
		p.Unknown = v.Unknown[:k]
	}
	return p
}

// Engine computes session verdicts for faults on a fixed scan
// configuration and plan. It precomputes the per-chain partitions and the
// syndrome table x^e mod p used for sparse signature evaluation.
type Engine struct {
	cfg  scan.Config
	plan Plan

	parts   [][]partition.Partition // parts[chain][t]
	chainOf []int                   // cell -> chain index
	posOf   []int                   // cell -> position within chain
	shiftsL int                     // shift clocks per pattern (max chain length)
	clocks  int                     // shift clocks per session (patterns × shiftsL)
	xp      []uint64                // xp[e] = x^e mod MISRPoly
	vgroups int                     // verdict slots per partition
	// tables pools the *sessionTable of sessionTable; cellSets the
	// *bitset.Set of failingCells.
	tables   sync.Pool
	cellSets sync.Pool
}

// PerChainVerdicts reports whether verdicts are per (chain, group) rather
// than shared across chains.
func (e *Engine) PerChainVerdicts() bool {
	return !e.plan.SharedCompactor && len(e.cfg.Chains) > 1
}

// VerdictGroups returns the number of verdict slots per partition:
// Groups for a shared compactor, Groups × chains otherwise.
func (e *Engine) VerdictGroups() int { return e.vgroups }

// verdictIndex maps a chain-local group to its verdict slot.
func (e *Engine) verdictIndex(chain, grp int) int {
	if e.PerChainVerdicts() {
		return chain*e.plan.Groups + grp
	}
	return grp
}

// NewEngine validates the configuration and prepares partitions and
// syndrome tables. nPatterns fixes the session length (clocks = nPatterns ×
// max chain length).
func NewEngine(cfg scan.Config, plan Plan, nPatterns int) (*Engine, error) {
	plan = plan.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if plan.Scheme == nil {
		return nil, fmt.Errorf("bist: plan has no partitioning scheme")
	}
	if plan.Groups < 1 || plan.Partitions < 1 {
		return nil, fmt.Errorf("bist: plan needs at least 1 group and 1 partition")
	}
	if nPatterns < 1 {
		return nil, fmt.Errorf("bist: pattern count %d < 1", nPatterns)
	}
	e := &Engine{
		cfg:     cfg,
		plan:    plan,
		chainOf: make([]int, cfg.NumCells),
		posOf:   make([]int, cfg.NumCells),
		shiftsL: cfg.MaxChainLength(),
	}
	// A Scheme gives equal partitions for equal arguments, and partitions
	// are read-only, so chains of one length share a single search.
	byLen := make(map[int][]partition.Partition)
	for ci, ch := range cfg.Chains {
		p, ok := byLen[ch.Len()]
		if !ok {
			var err error
			if p, err = plan.Scheme.Partitions(ch.Len(), plan.Groups, plan.Partitions); err != nil {
				return nil, fmt.Errorf("bist: chain %d: %w", ci, err)
			}
			byLen[ch.Len()] = p
		}
		e.parts = append(e.parts, p)
		for pos, cell := range ch.Cells {
			e.chainOf[cell] = ci
			e.posOf[cell] = pos
		}
	}
	// Syndrome table: an error bit on chain c at shift clock τ of the
	// session contributes x^(T−1−τ+c) mod p to the error signature, where
	// T = nPatterns × shiftsL. One table of x^e covers all (τ, c).
	e.clocks = nPatterns * e.shiftsL
	e.xp = make([]uint64, e.clocks+len(cfg.Chains))
	lfsr.MustNew(plan.MISRPoly, 1).StatesInto(e.xp)
	e.vgroups = plan.Groups
	if e.PerChainVerdicts() {
		e.vgroups = plan.Groups * len(cfg.Chains)
	}
	return e, nil
}

// Plan returns the engine's (defaulted) plan.
func (e *Engine) Plan() Plan { return e.plan }

// Config returns the scan configuration.
func (e *Engine) Config() scan.Config { return e.cfg }

// ChainPartitions returns the partitions applied to one chain. Chains of
// one length share them, so they are read-only.
func (e *Engine) ChainPartitions(chain int) []partition.Partition { return e.parts[chain] }

// NewVerdicts allocates a Verdicts shaped for this engine's plan, for
// reuse across a fault loop via VerdictsInto.
func (e *Engine) NewVerdicts() *Verdicts {
	return &Verdicts{
		Fail:   rows(make([]bool, e.plan.Partitions*e.vgroups), e.vgroups),
		ErrSig: rows(make([]uint64, e.plan.Partitions*e.vgroups), e.vgroups),
	}
}

// rows cuts flat into rows of n entries, each capped at its own end.
func rows[T any](flat []T, n int) [][]T {
	r := make([][]T, len(flat)/n)
	for i := range r {
		r[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return r
}

// Verdicts derives all session verdicts for a fault from its good and
// faulty responses: one scan of every cell of every block finds the
// failing cells, and only their error bits are folded (VerdictsInto).
func (e *Engine) Verdicts(good, faulty []*sim.Response, blocks []*sim.Block) *Verdicts {
	v := e.NewVerdicts()
	e.VerdictsInto(good, faulty, blocks, v)
	return v
}

// VerdictsInto recomputes v in place from a fault's responses — the
// pooled equivalent of Verdicts: the rows are zeroed and refilled, so one
// per-worker Verdicts serves the whole fault loop without allocating. v
// must come from NewVerdicts on this engine. It scans every cell of every
// block for the failing cells; a caller that already holds them (the
// simulator reports them) passes them to CellVerdictsUpTo instead, which
// costs only the failing cells' words.
func (e *Engine) VerdictsInto(good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) {
	cells := e.failingCells(good, faulty, blocks)
	e.cellVerdicts(cells, good, faulty, blocks, v)
	e.cellSets.Put(cells)
}

// failingCells returns the cells whose faulty words differ from the good
// ones within some block's mask, in a set from e.cellSets that the caller
// puts back: one block-major scan of every cell.
func (e *Engine) failingCells(good, faulty []*sim.Response, blocks []*sim.Block) *bitset.Set {
	cells, _ := e.cellSets.Get().(*bitset.Set)
	if cells == nil {
		cells = bitset.New(e.cfg.NumCells)
	}
	cells.Reset()
	for bi, b := range blocks {
		mask := b.Mask()
		g, f := good[bi].Next, faulty[bi].Next
		for cell := range g {
			if (g[cell]^f[cell])&mask != 0 {
				cells.Add(cell)
			}
		}
	}
	return cells
}

// cellVerdicts is the one fold behind every perfect-tester verdict: for
// each cell of cells it folds the cell's error bits into one syndrome
// (cellSyndrome), then XORs that syndrome once into the cell's slot in
// each partition. By MISR linearity a session's error signature is the
// XOR of the syndromes of the cells it unmasks, so the cost is the
// failing cells' words, not the stream length or the scan length. cells
// must hold every cell with an error bit; a cell without one adds
// nothing, so a superset gives the same verdicts.
func (e *Engine) cellVerdicts(cells *bitset.Set, good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) {
	e.checkClocks(blocks)
	for t := range v.Fail {
		clear(v.Fail[t])
		clear(v.ErrSig[t])
	}
	v.Unknown = nil
	cells.ForEach(func(cell int) {
		syn, hit := e.cellSyndrome(cell, good, faulty, blocks)
		if !hit {
			return
		}
		chain, pos := e.chainOf[cell], e.posOf[cell]
		for t, p := range e.parts[chain] {
			slot := e.verdictIndex(chain, p.GroupOf[pos])
			v.ErrSig[t][slot] ^= syn
			if e.plan.Ideal {
				v.Fail[t][slot] = true
			}
		}
	})
	if !e.plan.Ideal {
		for t, row := range v.ErrSig {
			for g, s := range row {
				v.Fail[t][g] = s != 0
			}
		}
	}
}

// cellSyndrome folds one cell's marked bits over the session into the XOR
// of their syndromes: its error bits (faulty differing from good within
// each block's mask), or with faulty nil the one bits of good itself. hit
// reports whether any bit was marked, since marked bits may fold to zero.
// The caller has checked blocks against the engine (checkClocks).
func (e *Engine) cellSyndrome(cell int, good, faulty []*sim.Response, blocks []*sim.Block) (syn uint64, hit bool) {
	chain, pos := e.chainOf[cell], e.posOf[cell]
	patternBase := 0
	var marked uint64
	for bi, b := range blocks {
		w := good[bi].Next[cell]
		if faulty != nil {
			w ^= faulty[bi].Next[cell]
		}
		w &= b.Mask()
		marked |= w
		for d := w; d != 0; d &= d - 1 {
			syn ^= e.bitSyndrome(patternBase+bits.TrailingZeros64(d), chain, pos)
		}
		patternBase += b.N
	}
	return syn, marked != 0
}

// bitSyndrome is the contribution of an error bit at position pos of a
// chain on pattern p to its session's error signature: scan-out streams
// the chain starting at position 0, so the bit leaves on shift clock
// τ = p × shiftsL + pos of a session of T clocks and enters as
// x^(T−1−τ+chain) modulo the MISR polynomial.
func (e *Engine) bitSyndrome(p, chain, pos int) uint64 {
	return e.xp[e.clocks-1-(p*e.shiftsL+pos)+chain]
}

// checkClocks panics unless blocks hold exactly the session length the
// engine was built for.
func (e *Engine) checkClocks(blocks []*sim.Block) {
	total := 0
	for _, b := range blocks {
		total += b.N * e.shiftsL
	}
	if total != e.clocks {
		panic(fmt.Sprintf("bist: blocks hold %d clocks of patterns, engine sized for %d", total, e.clocks))
	}
}

// Cost quantifies the test-resource footprint of a plan: diagnosis time
// (sessions and shift clocks) and hardware (selection registers, golden
// signature storage) — the axes on which the paper argues two-step
// partitioning is cheap ("only two additional registers").
type Cost struct {
	// Sessions is the number of BIST sessions (groups × partitions,
	// per-chain sessions running concurrently).
	Sessions int
	// ClocksPerSession is the shift clocks one session takes
	// (patterns × longest chain).
	ClocksPerSession int64
	// TotalClocks is the complete diagnosis time in shift clocks.
	TotalClocks int64
	// SignatureBits is the golden-signature storage: one MISR signature
	// per verdict slot per partition.
	SignatureBits int
	// SelectionRegisterBits is the register cost of the Figure-1 selection
	// hardware per chain: LFSR + IVR + Test Counter 1 + Shift Counter 1 +
	// Pattern Counter, plus the scheme's extra registers (Shift/Test
	// Counter 2 for interval-capable schemes).
	SelectionRegisterBits int
}

// Cost computes the plan's resource footprint.
func (e *Engine) Cost() Cost {
	nPatterns := e.clocks / e.shiftsL
	c := Cost{
		Sessions:         e.plan.Groups * e.plan.Partitions,
		ClocksPerSession: int64(nPatterns) * int64(e.shiftsL),
	}
	c.TotalClocks = c.ClocksPerSession * int64(c.Sessions)
	c.SignatureBits = e.vgroups * e.plan.Partitions * e.plan.MISRPoly.Degree()
	lfsrBits := 16 // the partition LFSR and IVR follow the paper's degree 16
	base := lfsrBits + lfsrBits + bitsFor(e.plan.Groups) + bitsFor(e.shiftsL) + bitsFor(nPatterns)
	extra := 0
	if er, ok := e.plan.Scheme.(partition.ExtraRegisters); ok {
		extra = er.ExtraRegisterBits(e.shiftsL, e.plan.Groups)
	}
	c.SelectionRegisterBits = (base + extra) * len(e.cfg.Chains)
	return c
}

// bitsFor returns the register width to count up to n.
func bitsFor(n int) int {
	w := 0
	for v := n; v > 0; v >>= 1 {
		w++
	}
	if w == 0 {
		w = 1
	}
	return w
}

// GoldenSignatures computes the fault-free signature of every (partition,
// verdict slot) session in one pass over the response stream — the values a
// deployment stores on the tester (Cost.SignatureBits). Sig[t][slot] equals
// SessionSignature(good, blocks, t, slot); the syndrome identity makes this
// O(stream × partitions) instead of O(stream × sessions).
func (e *Engine) GoldenSignatures(good []*sim.Response, blocks []*sim.Block) [][]uint64 {
	sigs := make([][]uint64, e.plan.Partitions)
	for t := range sigs {
		sigs[t] = make([]uint64, e.vgroups)
	}
	e.checkClocks(blocks)
	for cell := range e.cfg.NumCells {
		syn, _ := e.cellSyndrome(cell, good, nil, blocks)
		chain, pos := e.chainOf[cell], e.posOf[cell]
		for t, p := range e.parts[chain] {
			sigs[t][e.verdictIndex(chain, p.GroupOf[pos])] ^= syn
		}
	}
	return sigs
}

// CellSyndromes returns each cell's aggregate error syndrome over the
// whole session stream: the XOR of x^(T−1−τ+chain) mod p over the cell's
// error bits. By MISR linearity, a masked session that unmasks a set S of
// cells fails iff the XOR of their syndromes is nonzero, which lets
// adaptive diagnosis schemes evaluate arbitrary masks in O(|S|) without
// re-simulating.
func (e *Engine) CellSyndromes(good, faulty []*sim.Response, blocks []*sim.Block) []uint64 {
	syn := make([]uint64, e.cfg.NumCells)
	e.checkClocks(blocks)
	for cell := range syn {
		syn[cell], _ = e.cellSyndrome(cell, good, faulty, blocks)
	}
	return syn
}

// SessionSignature streams the full response through a real MISR for one
// verdict slot of the plan, exactly as the hardware would: patterns in
// order, one shift clock per chain position, masked cells contributing 0,
// chain c feeding MISR input bit c. With per-chain verdicts the slot
// selects a (chain, group) pair and only that chain's compactor input is
// live. It is the reference implementation that validates the sparse
// syndrome path and computes golden signatures for reporting.
func (e *Engine) SessionSignature(resp []*sim.Response, blocks []*sim.Block, t, slot int) uint64 {
	wantChain, g := -1, slot
	if e.PerChainVerdicts() {
		wantChain, g = slot/e.plan.Groups, slot%e.plan.Groups
	}
	m := lfsr.MustNewMISR(e.plan.MISRPoly)
	for bi, b := range blocks {
		for j := 0; j < b.N; j++ {
			for pos := 0; pos < e.shiftsL; pos++ {
				var in uint64
				for ci, ch := range e.cfg.Chains {
					if pos >= ch.Len() {
						continue
					}
					if wantChain >= 0 && ci != wantChain {
						continue
					}
					if e.parts[ci][t].GroupOf[pos] != g {
						continue
					}
					cell := ch.Cells[pos]
					in |= (resp[bi].Next[cell] >> uint(j) & 1) << uint(ci)
				}
				m.Clock(in)
			}
		}
	}
	return m.Signature()
}

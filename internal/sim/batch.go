package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file implements the fault-parallel batch engine: up to 256 faults
// are compiled into one dense straight-line kernel over the union of their
// fan-out cones, evaluated once per pattern set. The fault dimension is
// organised as G ∈ {1, 2, 4} word-parallel *planes* of up to 64 lanes
// each: within a plane the members' cones are pairwise disjoint (so a
// single pass computes every member's faulty values exactly, as in the
// original 64-lane engine), while across planes cones may overlap freely —
// each plane is an independent value space carried in its own words of
// every slot row. Overlapping cones therefore share one set of gate
// records instead of forcing separate batches, which is what keeps batches
// full on hub-heavy circuits and amortises record decode over G planes.
//
// The kernel's value space is laid out plane-major for locality: slot s
// holds a row of S = G×B words (B pattern blocks per plane; word g*B+bi is
// block bi of plane g), and slots [0, NumNets) are the fault-free baseline
// replicated into every plane at scratch creation. A gate no member's
// fault can reach is read directly at its net index with no record at all;
// only cone-union-interior gates emit records, which write to extension
// slots past the baseline (the baseline itself is never written). Fault
// injection compiles into the wiring: a whole-row constant slot when one
// polarity covers every plane, otherwise a masked force record (bopForce /
// bopTransForce) that overrides only the owning planes' words and passes
// the computed value through everywhere else. Records are sorted by
// (depth, op) — topologically safe, since a reader's depth strictly
// exceeds its operands' — so the evaluation switch runs long same-op
// streaks and stays branch-predictable; wide rows (S > 8) are evaluated in
// tiles of 8 words so each pass over the record stream touches one cache
// line per row (pattern×fault-lane tiling).
//
// Per-member captured-cell and PO differences are demultiplexed from the
// member's own plane into the same patch-list form the event-driven engine
// produces, so MaterializeBatch yields Results bit-for-bit identical to
// RunReference / RunTransitionReference (pinned by the equivalence tests
// and FuzzFaultBatch). The scheduler that forms the batches and assigns
// planes lives in schedule.go.

// BatchKind selects the fault model a compiled batch simulates. Stuck-at
// and transition faults evaluate over different fault-free baselines
// (single-cycle vs. cycle-2 of launch-off-capture) and must not mix.
type BatchKind uint8

const (
	// BatchStuckAt batches single stuck-at faults against the single-cycle
	// fault-free machine.
	BatchStuckAt BatchKind = iota
	// BatchTransition batches transition (delay) faults against the
	// two-cycle launch-off-capture machine.
	BatchTransition
)

// MaxLanes is the lane capacity of one plane: the fault-parallel analogue
// of the 64 pattern bits of a Block. Within a plane, members must have
// pairwise-disjoint cones.
const MaxLanes = 64

// MaxPlanes is the largest plane group: up to 4 word-parallel value
// spaces per slot row, giving 256-bit fault lanes.
const MaxPlanes = 4

// MaxBatchLanes is the lane capacity of one batch across all planes.
const MaxBatchLanes = MaxLanes * MaxPlanes

// KernelVersion identifies the batch kernel's record format and
// scheduling semantics. It participates in plan cache keys so compiled
// plans persisted by one kernel generation are rebuilt — never
// misinterpreted — by another.
const KernelVersion = 2

// PlanesFor returns the plane-group size used for a lane cap: the
// smallest G ∈ {1, 2, 4} whose G×64 lanes cover it.
func PlanesFor(laneCap int) int {
	switch {
	case laneCap <= MaxLanes:
		return 1
	case laneCap <= 2*MaxLanes:
		return 2
	default:
		return MaxPlanes
	}
}

// Kernel micro-ops. The compiler decomposes arbitrary-fan-in gates into
// chains of binary/unary records matching logic.Eval's left-fold semantics,
// with the inversion applied by the final record of a chain.
const (
	bopBuf uint8 = iota
	bopNot
	bopAnd
	bopNand
	bopOr
	bopNor
	bopXor
	bopXnor
	bopConst0
	bopConst1
	// bopForce applies per-plane stuck-at overrides: b packs force masks
	// m1 | m0<<8 (bit g of a mask selects plane g), and each word becomes
	// (a | M1) &^ M0 with M = all-ones in the selected planes. Planes
	// outside both masks pass the computed value of slot a through
	// unchanged. In an owning plane the computed value equals the
	// fault-free one (any in-plane upstream corrupter's cone would contain
	// the site, which in-plane disjointness forbids), so the override is
	// exact.
	bopForce
	// bopTransForce forces a transition-fault site per plane: b packs
	// site<<8 | mr<<4 | mf, where site is the fault net (its cycle-1
	// launch row feeds the hold-back) and mr/mf select the slow-to-rise /
	// slow-to-fall planes. In a rise plane the cycle-2 value keeps a 1
	// only if the launch value was already 1 (a & l); in a fall plane it
	// keeps a 0 only if the launch was already 0 (a | l); other planes
	// pass slot a through.
	bopTransForce
)

// bgate is one kernel micro-op: row[out] = op(row[a], row[b]), each row
// being S = planes×B words. For unary ops b is unused; force ops pack
// plane masks (and the transition site) into b. The op itself lives in
// the enclosing opRun, keeping the hot record stream at 12 bytes per gate.
type bgate struct {
	a, b, out int32
}

// bcap demultiplexes one observation point: the value row in slot belongs
// to batch member owner and is compared against the baseline row of net
// good, both read in the owner's plane, then patched at scan cell (or PO)
// idx. In-plane cone disjointness guarantees each idx has at most one
// owner per plane, so an idx may appear once per plane of a batch.
type bcap struct {
	idx   int32
	slot  int32
	good  int32
	owner int32
}

// CompiledBatch is the dense kernel of one fault batch. Compiled batches
// are immutable and safe for concurrent RunBatch from different forks,
// each with its own BatchScratch.
type CompiledBatch struct {
	Kind BatchKind
	// Faults holds the members of a stuck-at batch; TFaults of a transition
	// batch. Exactly one of the two is non-empty.
	Faults  []Fault
	TFaults []TransitionFault
	// Index maps each member to its position in the fault list the plan was
	// built from, so sweep results land at their original indices.
	Index []int
	// Planes assigns each member its plane within the batch's plane group.
	// Members sharing a plane have pairwise-disjoint cones; members in
	// different planes may overlap.
	Planes []uint8

	gates   []bgate
	runs    []opRun // op-homogeneous streaks of gates, in order
	cells   []bcap
	pos     []bcap
	nExt    int   // extension slots past the baseline+const region
	nPlanes int   // plane-group size the batch was compiled for (1, 2 or 4)
	seq     int32 // position in the owning plan, indexing the scratch's dense good-word rows
}

// NumPlanes returns the plane-group size the batch was compiled for.
func (cb *CompiledBatch) NumPlanes() int { return cb.nPlanes }

// plane returns member k's plane.
func (cb *CompiledBatch) plane(k int32) int {
	if int(k) < len(cb.Planes) {
		return int(cb.Planes[k])
	}
	return 0
}

// opRun is a maximal streak of consecutive records sharing one op, the
// product of the (depth, op) sort. Specialized kernels iterate runs so the
// op dispatch is hoisted out of the record loop.
type opRun struct {
	start, end int32
	op         uint8
}

// Lanes returns the number of faults packed into the batch.
func (cb *CompiledBatch) Lanes() int {
	if cb.Kind == BatchTransition {
		return len(cb.TFaults)
	}
	return len(cb.Faults)
}

// fault returns member k as a Fault for Result reporting; transition
// members are reported the same way RunTransition reports them.
func (cb *CompiledBatch) fault(k int) Fault {
	if cb.Kind == BatchTransition {
		return Fault{Net: cb.TFaults[k].Net, Gate: -1, Pin: -1}
	}
	return cb.Faults[k]
}

// batchCache memoizes the net-major baseline transposes shared by every
// BatchScratch of a FaultSim and its forks: row net*B+bi is the fault-free
// word of net on block bi (single-cycle for stuck-at; cycle 2 of
// launch-off-capture for transition, whose forces also read the
// single-cycle rows as launch values).
type batchCache struct {
	stuckOnce sync.Once
	stuck     []uint64
	transOnce sync.Once
	trans     []uint64
}

func (fs *FaultSim) stuckBaseline() []uint64 {
	fs.bc.stuckOnce.Do(func() {
		B := len(fs.blocks)
		t := make([]uint64, fs.sim.c.NumNets()*B)
		for bi, gv := range fs.goodVals {
			for net, w := range gv {
				t[net*B+bi] = w
			}
		}
		fs.bc.stuck = t
	})
	return fs.bc.stuck
}

func (fs *FaultSim) transBaseline() []uint64 {
	fs.bc.transOnce.Do(func() {
		tc := fs.twoCycle()
		B := len(fs.blocks)
		t := make([]uint64, fs.sim.c.NumNets()*B)
		for bi, gv := range tc.vals {
			for net, w := range gv {
				t[net*B+bi] = w
			}
		}
		fs.bc.trans = t
	})
	return fs.bc.trans
}

// patchEntry records one demultiplexed word: response index idx takes the
// member's value word, everything else stays fault-free.
type patchEntry struct {
	word uint64
	idx  int32
}

// batchMember accumulates one lane's observation state across blocks.
// failCells holds each failing cell once; it feeds a set at
// materialization time. A list keeps the per-batch reset O(faults that
// failed) instead of O(cells) bitset words per lane.
type batchMember struct {
	failCells []int32
	detecting int
	poSeen    bool
	cellPatch [][]patchEntry // per block
	poPatch   [][]patchEntry // per block
}

// BatchScratch holds the reusable evaluation state of the batch engine:
// the slot rows (baseline region pre-copied, extension region reused per
// batch) and the per-member demultiplexed patches. Obtain one per goroutine
// from NewBatchScratch; the steady state of RunBatch/MaterializeBatch then
// allocates nothing. A scratch is bound to its plan's fault model — the
// baseline region holds that model's fault-free rows.
type BatchScratch struct {
	kind    BatchKind
	planes  int      // plane-group size G; row stride is planes×B words
	vals    []uint64 // (NumNets+2+maxExt) rows of planes×B words
	launch  []uint64 // single-cycle rows feeding transition forces, B words per net (nil for stuck-at)
	masks   []uint64 // per block: valid-pattern mask
	members []batchMember
	anyErr  []uint64   // lanes × B accumulated cell-diff words
	poOf    []int32    // per member of the current batch: plane offset (plane × B words)
	goods   [][]uint64 // per plan batch: dense fault-free words of its cells then POs, B words each
	cb      *CompiledBatch
}

// NewBatchScratch allocates a scratch sized for the largest batch of plan,
// for use with any of its batches on this FaultSim (or a Fork). The
// baseline and constant rows are replicated into every plane of the plan's
// plane group; the launch rows stay single-plane, since cycle-1 launch
// values are fault-free and therefore identical across planes.
func (fs *FaultSim) NewBatchScratch(p *BatchPlan) *BatchScratch {
	c := fs.sim.c
	B := len(fs.blocks)
	G := p.planes
	S := G * B
	N := c.NumNets()
	bs := &BatchScratch{
		kind:    p.kind,
		planes:  G,
		vals:    make([]uint64, (N+2+p.maxExt)*S),
		masks:   make([]uint64, B),
		members: make([]batchMember, p.maxLanes),
		anyErr:  make([]uint64, p.maxLanes*B),
		poOf:    make([]int32, p.maxLanes),
	}
	var base []uint64
	if p.kind == BatchTransition {
		base = fs.transBaseline()
		bs.launch = fs.stuckBaseline()
	} else {
		base = fs.stuckBaseline()
	}
	for net := 0; net < N; net++ {
		row := base[net*B : (net+1)*B]
		for g := 0; g < G; g++ {
			copy(bs.vals[net*S+g*B:], row)
		}
	}
	for bi := range bs.masks {
		bs.masks[bi] = fs.blocks[bi].Mask()
	}
	// Dense fault-free words for every observation point of every batch,
	// in capture order (cells then POs). captureBatch then streams one
	// sequential array per batch instead of gathering scattered baseline
	// rows — net and const rows are never written by kernel records, so
	// the copies stay exact for the scratch's lifetime.
	bs.goods = make([][]uint64, len(p.Batches))
	for _, cb := range p.Batches {
		g := make([]uint64, (len(cb.cells)+len(cb.pos))*B)
		for i, cc := range cb.cells {
			copy(g[i*B:], base[int(cc.good)*B:int(cc.good+1)*B])
		}
		off := len(cb.cells) * B
		for i, pc := range cb.pos {
			copy(g[off+i*B:], base[int(pc.good)*B:int(pc.good+1)*B])
		}
		bs.goods[cb.seq] = g
	}
	// Const-1 row across every plane; the const-0 row is already zero.
	for w := 0; w < S; w++ {
		bs.vals[(N+1)*S+w] = ^uint64(0)
	}
	for k := range bs.members {
		m := &bs.members[k]
		m.cellPatch = make([][]patchEntry, B)
		m.poPatch = make([][]patchEntry, B)
	}
	return bs
}

// RunBatch evaluates the batch kernel over every pattern block, filling the
// scratch with each member's failing cells, detecting-pattern count, PO
// visibility, and response patches. Results are read back per member with
// MaterializeBatch.
func (fs *FaultSim) RunBatch(cb *CompiledBatch, bs *BatchScratch) {
	fs.beginBatch(cb, bs)
	fs.runGateRuns(cb, bs, cb.runs)
	fs.captureBatch(cb, bs)
}

// RunBatchContext is RunBatch with cancellation: the gate stream is
// evaluated in blocks of a few thousand records with ctx polled between
// blocks, so a deadline interrupts a 64-lane sweep within one block's
// worth of work while the hot kernels stay branch- and allocation-free.
// On a non-nil error the batch's results are unusable, but the scratch
// itself remains reusable: every working slot a kernel reads was written
// earlier in the same run (gates are in topological order), so the next
// full RunBatch overwrites any torn state before consuming it.
//
//allochot:entry
func (fs *FaultSim) RunBatchContext(ctx context.Context, cb *CompiledBatch, bs *BatchScratch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		// Context can never be cancelled: run the uninterrupted kernel.
		fs.RunBatch(cb, bs)
		return nil
	}
	fs.beginBatch(cb, bs)
	// ~2k gate records per block keeps the poll overhead under 0.1% while
	// bounding the post-cancel drain to microseconds.
	const blockRecords = 2048
	runs := cb.runs
	for len(runs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, j := 0, 0
		for j < len(runs) && n < blockRecords {
			n += int(runs[j].end - runs[j].start)
			j++
		}
		fs.runGateRuns(cb, bs, runs[:j])
		runs = runs[j:]
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	fs.captureBatch(cb, bs)
	return nil
}

// beginBatch validates the batch against the scratch and resets the
// per-member accumulators.
func (fs *FaultSim) beginBatch(cb *CompiledBatch, bs *BatchScratch) {
	lanes := cb.Lanes()
	B := len(fs.blocks)
	if cb.Kind != bs.kind {
		panic("sim: batch kind does not match the scratch's baseline")
	}
	if cb.nPlanes > bs.planes {
		panic(fmt.Sprintf("sim: batch compiled for %d planes, scratch holds %d", cb.nPlanes, bs.planes))
	}
	if lanes > len(bs.members) || (fs.sim.c.NumNets()+2+cb.nExt)*bs.planes*B > len(bs.vals) {
		panic(fmt.Sprintf("sim: batch needs %d lanes / %d extension slots, scratch is smaller", lanes, cb.nExt))
	}
	if int(cb.seq) >= len(bs.goods) || len(bs.goods[cb.seq]) != (len(cb.cells)+len(cb.pos))*B {
		panic("sim: batch is not from the plan the scratch was built for")
	}
	bs.cb = cb
	for k := 0; k < lanes; k++ {
		bs.poOf[k] = int32(cb.plane(int32(k)) * B)
		m := &bs.members[k]
		m.failCells = m.failCells[:0]
		m.detecting = 0
		m.poSeen = false
		for bi := range m.cellPatch {
			m.cellPatch[bi] = m.cellPatch[bi][:0]
			m.poPatch[bi] = m.poPatch[bi][:0]
		}
	}
	anyErr := bs.anyErr[:lanes*B]
	for i := range anyErr {
		anyErr[i] = 0
	}
}

// runGateRuns evaluates a consecutive slice of the batch's op-runs.
// Records index the full gate stream, so callers may feed the runs in
// sequential sub-slices (RunBatchContext's cancellation blocks) with
// results identical to one full call. Rows wider than 8 words are
// evaluated in 8-word tiles — repeated passes over the record stream, each
// touching one cache line per row — so big pattern sets and wide plane
// groups stay cache-resident (pattern×fault-lane tiling).
func (fs *FaultSim) runGateRuns(cb *CompiledBatch, bs *BatchScratch, runs []opRun) {
	B := len(fs.blocks)
	S := bs.planes * B
	if runRunsAccel(bs.vals, cb.gates, runs, bs.launch, S, B) {
		return
	}
	switch S {
	case 1:
		runGates1(bs.vals, cb.gates, runs, bs.launch, B)
	case 2:
		runGates2(bs.vals, cb.gates, runs, bs.launch, B)
	default:
		w0 := 0
		for S-w0 >= 8 {
			runGates8(bs.vals, cb.gates, runs, bs.launch, S, B, w0)
			w0 += 8
		}
		if S-w0 >= 4 {
			runGates4(bs.vals, cb.gates, runs, bs.launch, S, B, w0)
			w0 += 4
		}
		if w0 < S {
			runGatesWin(bs.vals, cb.gates, runs, bs.launch, S, B, w0, S)
		}
	}
}

// captureBatch demultiplexes the evaluated slot rows into per-member
// failing cells, detection counts, PO visibility, and response patches.
// captureBatch demultiplexes each observation point from its owner's
// plane: rows are S = planes×B words, and owner k's words start at plane
// offset Planes[k]×B (baseline rows hold the same fault-free words in
// every plane, so the good row reads stay exact at any plane offset).
func (fs *FaultSim) captureBatch(cb *CompiledBatch, bs *BatchScratch) {
	lanes := cb.Lanes()
	B := len(fs.blocks)
	S := bs.planes * B
	vals := bs.vals
	anyErr := bs.anyErr[:lanes*B]
	goods := bs.goods[cb.seq]
	masks := bs.masks
	poOf := bs.poOf

	if B == 2 {
		// Two-block fast path (the 65..128-pattern configuration every
		// experiment runs): both words compared with one fused branch, no
		// inner loop.
		m0, m1 := masks[0], masks[1]
		for i, cc := range cb.cells {
			wi := int(cc.slot)*S + int(poOf[cc.owner])
			g0, g1 := goods[i*2], goods[i*2+1]
			w0, w1 := vals[wi], vals[wi+1]
			d0, d1 := w0^g0, w1^g1
			// Most observation points match the fault-free response on
			// every block; one fused compare skips them with one branch.
			if d0|d1 == 0 {
				continue
			}
			m := &bs.members[cc.owner]
			ei := int(cc.owner) * 2
			if d0 != 0 {
				m.cellPatch[0] = append(m.cellPatch[0], patchEntry{word: w0, idx: cc.idx})
			}
			if d1 != 0 {
				m.cellPatch[1] = append(m.cellPatch[1], patchEntry{word: w1, idx: cc.idx})
			}
			md0, md1 := d0&m0, d1&m1
			if md0|md1 != 0 {
				anyErr[ei] |= md0
				anyErr[ei+1] |= md1
				m.failCells = append(m.failCells, cc.idx)
			}
		}
	} else {
		for i, cc := range cb.cells {
			wi := int(cc.slot)*S + int(poOf[cc.owner])
			gd := goods[i*B : i*B+B : i*B+B]
			var or uint64
			for bi, g := range gd {
				or |= vals[wi+bi] ^ g
			}
			if or == 0 {
				continue
			}
			m := &bs.members[cc.owner]
			ei := int(cc.owner) * B
			var masked uint64
			for bi, g := range gd {
				w := vals[wi+bi]
				d := w ^ g
				if d == 0 {
					continue
				}
				m.cellPatch[bi] = append(m.cellPatch[bi], patchEntry{word: w, idx: cc.idx})
				md := d & masks[bi]
				anyErr[ei+bi] |= md
				masked |= md
			}
			if masked != 0 {
				m.failCells = append(m.failCells, cc.idx)
			}
		}
	}
	for k := 0; k < lanes; k++ {
		m := &bs.members[k]
		for _, w := range anyErr[k*B:][:B:B] {
			m.detecting += bits.OnesCount64(w)
		}
	}
	off := len(cb.cells) * B
	for i, pc := range cb.pos {
		wi := int(pc.slot)*S + int(poOf[pc.owner])
		gd := goods[off+i*B : off+(i+1)*B : off+(i+1)*B]
		var or uint64
		for bi, g := range gd {
			or |= vals[wi+bi] ^ g
		}
		if or == 0 {
			continue
		}
		m := &bs.members[pc.owner]
		for bi, g := range gd {
			w := vals[wi+bi]
			d := w ^ g
			if d == 0 {
				continue
			}
			m.poPatch[bi] = append(m.poPatch[bi], patchEntry{word: w, idx: pc.idx})
			if d&masks[bi] != 0 {
				m.poSeen = true
			}
		}
	}
}

// forceRun applies a run of bopForce records over the word window
// [w0, w1): plane g's words are driven to 1 where bit g of m1 is set, to 0
// where bit g of m0 is set, and pass slot a through otherwise. Force runs
// are tiny (at most one record per distinct forced net), so the per-word
// plane computation is off the hot path.
func forceRun(vals []uint64, recs []bgate, S, B, w0, w1 int) {
	for i := range recs {
		g := &recs[i]
		m1 := uint32(g.b) & 0xFF
		m0 := uint32(g.b) >> 8 & 0xFF
		a, o := int(g.a)*S, int(g.out)*S
		// Plane-major: the masks are constant within a plane's B words.
		for p := uint(w0 / B); int(p)*B < w1; p++ {
			M1 := -(uint64(m1>>p) & 1)
			M0 := -(uint64(m0>>p) & 1)
			lo, hi := int(p)*B, (int(p)+1)*B
			if lo < w0 {
				lo = w0
			}
			if hi > w1 {
				hi = w1
			}
			for w := lo; w < hi; w++ {
				vals[o+w] = (vals[a+w] | M1) &^ M0
			}
		}
	}
}

// transForceRun applies a run of bopTransForce records over [w0, w1): in a
// slow-to-rise plane the cycle-2 value (slot a) keeps a 1 only where the
// cycle-1 launch value already was 1; in a slow-to-fall plane it keeps a 0
// only where the launch already was 0; other planes pass slot a through.
// Launch rows are B words per net — fault-free, hence shared by every
// plane.
func transForceRun(vals, launch []uint64, recs []bgate, S, B, w0, w1 int) {
	for i := range recs {
		g := &recs[i]
		site := int(g.b >> 8)
		mr := uint32(g.b) >> 4 & 0xF
		mf := uint32(g.b) & 0xF
		a, o, li := int(g.a)*S, int(g.out)*S, site*B
		// Plane-major: the hold-back masks are constant within a plane.
		for p := uint(w0 / B); int(p)*B < w1; p++ {
			kr := -(uint64(mr>>p) & 1)
			kf := -(uint64(mf>>p) & 1)
			lo, hi := int(p)*B, (int(p)+1)*B
			if lo < w0 {
				lo = w0
			}
			if hi > w1 {
				hi = w1
			}
			for w := lo; w < hi; w++ {
				l := launch[li+w-int(p)*B]
				vals[o+w] = (vals[a+w] & (l | ^kr)) | (l & kf)
			}
		}
	}
}

// runGates2 is the two-word kernel loop (128 single-plane patterns or 64
// patterns × 2 planes): op dispatch hoisted to run granularity, fully
// unrolled row operations, no per-record slice construction.
func runGates2(vals []uint64, gates []bgate, runs []opRun, launch []uint64, B int) {
	for _, r := range runs {
		recs := gates[r.start:r.end]
		switch r.op {
		case bopAnd:
			for i := range recs {
				g := &recs[i]
				a, b, o := int(g.a)*2, int(g.b)*2, int(g.out)*2
				vals[o+1] = vals[a+1] & vals[b+1]
				vals[o] = vals[a] & vals[b]
			}
		case bopNand:
			for i := range recs {
				g := &recs[i]
				a, b, o := int(g.a)*2, int(g.b)*2, int(g.out)*2
				vals[o+1] = ^(vals[a+1] & vals[b+1])
				vals[o] = ^(vals[a] & vals[b])
			}
		case bopOr:
			for i := range recs {
				g := &recs[i]
				a, b, o := int(g.a)*2, int(g.b)*2, int(g.out)*2
				vals[o+1] = vals[a+1] | vals[b+1]
				vals[o] = vals[a] | vals[b]
			}
		case bopNor:
			for i := range recs {
				g := &recs[i]
				a, b, o := int(g.a)*2, int(g.b)*2, int(g.out)*2
				vals[o+1] = ^(vals[a+1] | vals[b+1])
				vals[o] = ^(vals[a] | vals[b])
			}
		case bopXor:
			for i := range recs {
				g := &recs[i]
				a, b, o := int(g.a)*2, int(g.b)*2, int(g.out)*2
				vals[o+1] = vals[a+1] ^ vals[b+1]
				vals[o] = vals[a] ^ vals[b]
			}
		case bopXnor:
			for i := range recs {
				g := &recs[i]
				a, b, o := int(g.a)*2, int(g.b)*2, int(g.out)*2
				vals[o+1] = ^(vals[a+1] ^ vals[b+1])
				vals[o] = ^(vals[a] ^ vals[b])
			}
		case bopBuf:
			for i := range recs {
				g := &recs[i]
				a, o := int(g.a)*2, int(g.out)*2
				vals[o+1] = vals[a+1]
				vals[o] = vals[a]
			}
		case bopNot:
			for i := range recs {
				g := &recs[i]
				a, o := int(g.a)*2, int(g.out)*2
				vals[o+1] = ^vals[a+1]
				vals[o] = ^vals[a]
			}
		case bopConst0:
			for i := range recs {
				o := int(recs[i].out) * 2
				vals[o+1] = 0
				vals[o] = 0
			}
		case bopConst1:
			for i := range recs {
				o := int(recs[i].out) * 2
				vals[o+1] = ^uint64(0)
				vals[o] = ^uint64(0)
			}
		case bopForce:
			forceRun(vals, recs, 2, B, 0, 2)
		case bopTransForce:
			transForceRun(vals, launch, recs, 2, B, 0, 2)
		}
	}
}

// runGates1 is the single-word kernel loop (≤64 patterns, one plane).
func runGates1(vals []uint64, gates []bgate, runs []opRun, launch []uint64, B int) {
	for _, r := range runs {
		recs := gates[r.start:r.end]
		switch r.op {
		case bopAnd:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = vals[g.a] & vals[g.b]
			}
		case bopNand:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = ^(vals[g.a] & vals[g.b])
			}
		case bopOr:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = vals[g.a] | vals[g.b]
			}
		case bopNor:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = ^(vals[g.a] | vals[g.b])
			}
		case bopXor:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = vals[g.a] ^ vals[g.b]
			}
		case bopXnor:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = ^(vals[g.a] ^ vals[g.b])
			}
		case bopBuf:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = vals[g.a]
			}
		case bopNot:
			for i := range recs {
				g := &recs[i]
				vals[g.out] = ^vals[g.a]
			}
		case bopConst0:
			for i := range recs {
				vals[recs[i].out] = 0
			}
		case bopConst1:
			for i := range recs {
				vals[recs[i].out] = ^uint64(0)
			}
		case bopForce:
			forceRun(vals, recs, 1, B, 0, 1)
		case bopTransForce:
			transForceRun(vals, launch, recs, 1, B, 0, 1)
		}
	}
}

// runGates8 evaluates one 8-word tile [w0, w0+8) of every record in runs:
// a 64-byte cache line per row per pass, the hot path for wide rows (the
// default 4-plane group over 2 pattern blocks is exactly one tile). The
// fixed-size array views let the compiler drop bounds checks and keep the
// 8 lanes in flight together.
func runGates8(vals []uint64, gates []bgate, runs []opRun, launch []uint64, S, B, w0 int) {
	for _, r := range runs {
		recs := gates[r.start:r.end]
		switch r.op {
		case bopAnd:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				b := (*[8]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = a[j] & b[j]
				}
			}
		case bopNand:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				b := (*[8]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = ^(a[j] & b[j])
				}
			}
		case bopOr:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				b := (*[8]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = a[j] | b[j]
				}
			}
		case bopNor:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				b := (*[8]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = ^(a[j] | b[j])
				}
			}
		case bopXor:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				b := (*[8]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = a[j] ^ b[j]
				}
			}
		case bopXnor:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				b := (*[8]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = ^(a[j] ^ b[j])
				}
			}
		case bopBuf:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				*o = *a
			}
		case bopNot:
			for i := range recs {
				g := &recs[i]
				o := (*[8]uint64)(vals[int(g.out)*S+w0:])
				a := (*[8]uint64)(vals[int(g.a)*S+w0:])
				for j := range o {
					o[j] = ^a[j]
				}
			}
		case bopConst0:
			for i := range recs {
				o := (*[8]uint64)(vals[int(recs[i].out)*S+w0:])
				for j := range o {
					o[j] = 0
				}
			}
		case bopConst1:
			for i := range recs {
				o := (*[8]uint64)(vals[int(recs[i].out)*S+w0:])
				for j := range o {
					o[j] = ^uint64(0)
				}
			}
		case bopForce:
			forceRun(vals, recs, S, B, w0, w0+8)
		case bopTransForce:
			transForceRun(vals, launch, recs, S, B, w0, w0+8)
		}
	}
}

// runGates4 evaluates one 4-word tile [w0, w0+4), the remainder tile of
// 4-mod-8 row widths and the whole row for S = 4.
func runGates4(vals []uint64, gates []bgate, runs []opRun, launch []uint64, S, B, w0 int) {
	for _, r := range runs {
		recs := gates[r.start:r.end]
		switch r.op {
		case bopAnd:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				b := (*[4]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = a[j] & b[j]
				}
			}
		case bopNand:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				b := (*[4]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = ^(a[j] & b[j])
				}
			}
		case bopOr:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				b := (*[4]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = a[j] | b[j]
				}
			}
		case bopNor:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				b := (*[4]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = ^(a[j] | b[j])
				}
			}
		case bopXor:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				b := (*[4]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = a[j] ^ b[j]
				}
			}
		case bopXnor:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				b := (*[4]uint64)(vals[int(g.b)*S+w0:])
				for j := range o {
					o[j] = ^(a[j] ^ b[j])
				}
			}
		case bopBuf:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				*o = *a
			}
		case bopNot:
			for i := range recs {
				g := &recs[i]
				o := (*[4]uint64)(vals[int(g.out)*S+w0:])
				a := (*[4]uint64)(vals[int(g.a)*S+w0:])
				for j := range o {
					o[j] = ^a[j]
				}
			}
		case bopConst0:
			for i := range recs {
				o := (*[4]uint64)(vals[int(recs[i].out)*S+w0:])
				for j := range o {
					o[j] = 0
				}
			}
		case bopConst1:
			for i := range recs {
				o := (*[4]uint64)(vals[int(recs[i].out)*S+w0:])
				for j := range o {
					o[j] = ^uint64(0)
				}
			}
		case bopForce:
			forceRun(vals, recs, S, B, w0, w0+4)
		case bopTransForce:
			transForceRun(vals, launch, recs, S, B, w0, w0+4)
		}
	}
}

// runGatesWin is the generic kernel loop over an arbitrary word window
// [w0, w1) of stride-S rows — the remainder path for row widths that are
// not a multiple of 4.
func runGatesWin(vals []uint64, gates []bgate, runs []opRun, launch []uint64, S, B, w0, w1 int) {
	for _, r := range runs {
		recs := gates[r.start:r.end]
		switch r.op {
		case bopAnd:
			for i := range recs {
				g := &recs[i]
				oo, ao, bo := int(g.out)*S, int(g.a)*S, int(g.b)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = vals[ao+w] & vals[bo+w]
				}
			}
		case bopNand:
			for i := range recs {
				g := &recs[i]
				oo, ao, bo := int(g.out)*S, int(g.a)*S, int(g.b)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = ^(vals[ao+w] & vals[bo+w])
				}
			}
		case bopOr:
			for i := range recs {
				g := &recs[i]
				oo, ao, bo := int(g.out)*S, int(g.a)*S, int(g.b)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = vals[ao+w] | vals[bo+w]
				}
			}
		case bopNor:
			for i := range recs {
				g := &recs[i]
				oo, ao, bo := int(g.out)*S, int(g.a)*S, int(g.b)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = ^(vals[ao+w] | vals[bo+w])
				}
			}
		case bopXor:
			for i := range recs {
				g := &recs[i]
				oo, ao, bo := int(g.out)*S, int(g.a)*S, int(g.b)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = vals[ao+w] ^ vals[bo+w]
				}
			}
		case bopXnor:
			for i := range recs {
				g := &recs[i]
				oo, ao, bo := int(g.out)*S, int(g.a)*S, int(g.b)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = ^(vals[ao+w] ^ vals[bo+w])
				}
			}
		case bopBuf:
			for i := range recs {
				g := &recs[i]
				copy(vals[int(g.out)*S+w0:int(g.out)*S+w1], vals[int(g.a)*S+w0:int(g.a)*S+w1])
			}
		case bopNot:
			for i := range recs {
				g := &recs[i]
				oo, ao := int(g.out)*S, int(g.a)*S
				for w := w0; w < w1; w++ {
					vals[oo+w] = ^vals[ao+w]
				}
			}
		case bopConst0:
			for i := range recs {
				oo := int(recs[i].out) * S
				for w := w0; w < w1; w++ {
					vals[oo+w] = 0
				}
			}
		case bopConst1:
			for i := range recs {
				oo := int(recs[i].out) * S
				for w := w0; w < w1; w++ {
					vals[oo+w] = ^uint64(0)
				}
			}
		case bopForce:
			forceRun(vals, recs, S, B, w0, w1)
		case bopTransForce:
			transForceRun(vals, launch, recs, S, B, w0, w1)
		}
	}
}

// MaterializeBatch reassembles member k of the last RunBatch into the
// per-fault Result format: the scratch responses are rewound to the batch's
// fault-free baseline and the member's patches applied, exactly as the
// event-driven RunInto would have produced for that fault alone. The
// Scratch must match the batch kind (NewScratch for stuck-at,
// NewTransitionScratch for transition batches). The Result is scratch-owned
// and valid until the next materialization or RunInto on the same Scratch.
//
//allochot:entry
func (fs *FaultSim) MaterializeBatch(bs *BatchScratch, k int, sc *Scratch) *Result {
	cb := bs.cb
	if cb == nil || k >= cb.Lanes() {
		panic(fmt.Sprintf("sim: MaterializeBatch lane %d of unrun or smaller batch", k))
	}
	fs.restore(sc)
	m := &bs.members[k]
	res := &sc.res
	res.Fault = cb.fault(k)
	res.Faulty = sc.faulty
	res.FailingCells.Reset()
	for _, ci := range m.failCells {
		res.FailingCells.Add(int(ci))
	}
	res.DetectingPatterns = m.detecting
	res.POOnly = m.poSeen && len(m.failCells) == 0
	for bi := range sc.faulty {
		r := sc.faulty[bi]
		for _, p := range m.cellPatch[bi] {
			r.Next[p.idx] = p.word
			sc.touchedCells[bi] = append(sc.touchedCells[bi], p.idx)
		}
		for _, p := range m.poPatch[bi] {
			r.PO[p.idx] = p.word
			sc.touchedPOs[bi] = append(sc.touchedPOs[bi], p.idx)
		}
	}
	return res
}

// batchSpec carries one batch's members and plane assignments into the
// compiler.
type batchSpec struct {
	kind    BatchKind
	faults  []Fault
	tfaults []TransitionFault
	index   []int
	planes  []uint8
	nPlanes int
}

// compileScratch is the compiler's reusable per-plan state: an
// epoch-stamped slot map so per-batch compilation never clears O(nets)
// arrays, plus the extension-slot depth table and the bucket counters
// driving the (depth, op) record sort.
type compileScratch struct {
	slotOf  []int32
	slotAt  []uint32
	epoch   uint32
	union   []circuit.NetID
	depths  []int16   // per extension slot
	tmp     []tmpGate // records under construction, before the (depth, op) sort
	buckets []int32   // per (depth, op) key: record count, then next output position
}

// tmpGate is a kernel record during compilation: bgate plus the op and
// sort depth that are stripped from the hot stream once ordering is fixed.
type tmpGate struct {
	a, b, out int32
	op        uint8
	depth     int16
}

func newCompileScratch(c *circuit.Circuit) *compileScratch {
	return &compileScratch{
		slotOf: make([]int32, c.NumNets()),
		slotAt: make([]uint32, c.NumNets()),
	}
}

func (cs *compileScratch) begin() {
	cs.epoch++
	if cs.epoch == 0 {
		for i := range cs.slotAt {
			cs.slotAt[i] = 0
		}
		cs.epoch = 1
	}
	cs.union = cs.union[:0]
	cs.depths = cs.depths[:0]
	cs.tmp = cs.tmp[:0]
}

// compileBatch lowers one batch into a CompiledBatch. Within each plane
// the members' cones are pairwise disjoint (the scheduler's contract);
// across planes cones may overlap, so injections compile into per-plane
// masked force records and the union of all cones is deduplicated before
// records are emitted.
func compileBatch(c *circuit.Circuit, spec batchSpec, cs *compileScratch) *CompiledBatch {
	cb := &CompiledBatch{
		Kind:    spec.kind,
		Faults:  spec.faults,
		TFaults: spec.tfaults,
		Index:   spec.index,
		Planes:  spec.planes,
		nPlanes: spec.nPlanes,
	}
	cs.begin()
	N := int32(c.NumNets())
	const0, const1 := N, N+1
	extBase := N + 2
	allMask := uint8(1)<<spec.nPlanes - 1
	constSlot := func(stuck uint8) int32 {
		if stuck == 1 {
			return const1
		}
		return const0
	}

	// Per-batch fault wiring tables. These are tiny (≤256 entries total)
	// and built once per plan, so map allocation here is fine. Forces on
	// the same net (or gate pin) from different planes merge into one
	// masked record — polarity pairs of a full fault list share their
	// entire cone this way.
	type stuckMasks struct{ m1, m0 uint8 } // per-plane force-to-1 / force-to-0
	type transMasks struct{ mr, mf uint8 } // per-plane slow-to-rise / slow-to-fall
	type pinKey struct {
		gate circuit.NetID
		pin  int
	}
	stemForce := make(map[circuit.NetID]stuckMasks)
	transSite := make(map[circuit.NetID]transMasks)
	pinForces := make(map[pinKey]stuckMasks)
	var capForces []bcap // DFF D-branch members: captured value forced

	// owners[k] is the cone whose cells/POs member k observes; nil for DFF
	// D-branch members (observed via capForces only).
	owners := make([]*circuit.Cone, cb.Lanes())
	for k := 0; k < cb.Lanes(); k++ {
		pb := uint8(1) << spec.planes[k]
		if spec.kind == BatchTransition {
			f := spec.tfaults[k]
			tm := transSite[f.Net]
			if f.SlowToRise {
				tm.mr |= pb
			} else {
				tm.mf |= pb
			}
			transSite[f.Net] = tm
			owners[k] = c.Cone(f.Net)
			cs.union = append(cs.union, owners[k].Nets...)
			continue
		}
		f := spec.faults[k]
		switch {
		case f.Stem():
			sm := stemForce[f.Net]
			if f.Stuck == 1 {
				sm.m1 |= pb
			} else {
				sm.m0 |= pb
			}
			stemForce[f.Net] = sm
			owners[k] = c.Cone(f.Net)
			cs.union = append(cs.union, owners[k].Nets...)
		case c.Nets[f.Gate].Op == logic.OpDFF:
			// Branch fault on a flip-flop D connection: forces only the
			// captured value; nothing propagates combinationally.
			capForces = append(capForces, bcap{
				idx:   int32(c.DFFIndex(f.Gate)),
				slot:  constSlot(f.Stuck),
				good:  int32(c.Nets[f.Gate].Fanin[0]),
				owner: int32(k),
			})
		default:
			pk := pinKey{gate: f.Gate, pin: f.Pin}
			sm := pinForces[pk]
			if f.Stuck == 1 {
				sm.m1 |= pb
			} else {
				sm.m0 |= pb
			}
			pinForces[pk] = sm
			owners[k] = c.Cone(f.Gate)
			cs.union = append(cs.union, owners[k].Nets...)
		}
	}

	// Topologically order the union by (level, id): a gate's combinational
	// fan-ins have strictly smaller levels, so every operand slot exists
	// before its reader. Cones from different planes may overlap, so equal
	// ids — adjacent after the sort — are deduplicated.
	sortByLevel(c, cs.union)
	cs.union = dedupeNets(cs.union)

	nExt := int32(0)
	newSlot := func(depth int16) int32 {
		s := extBase + nExt
		nExt++
		cs.depths = append(cs.depths, depth)
		return s
	}
	stamp := func(id circuit.NetID, s int32) {
		cs.slotOf[id] = s
		cs.slotAt[id] = cs.epoch
	}
	// slotDepth is 0 for baseline and const rows (available before any
	// record runs), and the defining record's depth for extension slots.
	slotDepth := func(s int32) int16 {
		if s < extBase {
			return 0
		}
		return cs.depths[s-extBase]
	}
	// operand resolves a fan-in: a stamped net reads its batch slot, any
	// other net reads its fault-free baseline row directly.
	operand := func(id circuit.NetID) int32 {
		if cs.slotAt[id] == cs.epoch {
			return cs.slotOf[id]
		}
		return int32(id)
	}

	// forceSlot chains a masked stuck-at override onto slot a: planes in
	// the masks read the forced constant, every other plane passes a
	// through. When one polarity covers the whole plane group the result
	// is a whole-row constant and no record is needed (the single-plane
	// fast path of the original engine).
	forceSlot := func(a int32, sm stuckMasks) int32 {
		if sm.m1 == allMask {
			return const1
		}
		if sm.m0 == allMask {
			return const0
		}
		d := slotDepth(a) + 1
		t := newSlot(d)
		cs.tmp = append(cs.tmp, tmpGate{a: a, b: int32(sm.m1) | int32(sm.m0)<<8, out: t, op: bopForce, depth: d})
		return t
	}

	var operands []int32
	for _, id := range cs.union {
		n := &c.Nets[id]
		sm, stuck := stemForce[id]
		tm, trans := transSite[id]
		// The pre-force value slot: the computed gate value where some
		// plane passes it through. The baseline row suffices when the net
		// is non-combinational (records never write net rows, and no
		// in-plane fault can corrupt a PI or flip-flop output), or when
		// every plane is forced — bopForce then ignores the operand, and
		// bopTransForce needs exactly the fault-free cycle-2 row, which is
		// what a forced plane's computed value would have been anyway
		// (an in-plane upstream corrupter's cone would contain the site,
		// which in-plane disjointness forbids).
		s := int32(id)
		needsCompute := n.Op.Combinational() &&
			!(stuck && sm.m1|sm.m0 == allMask) &&
			!(trans && tm.mr|tm.mf == allMask)
		if needsCompute {
			// Ordinary gate: gather operand slots, chain any member's
			// masked pin force onto its operand, and decompose to binary
			// records.
			operands = operands[:0]
			depth := int16(0)
			for pin, src := range n.Fanin {
				os := operand(src)
				if pf, ok := pinForces[pinKey{gate: id, pin: pin}]; ok {
					os = forceSlot(os, pf)
				}
				if d := slotDepth(os); d > depth {
					depth = d
				}
				operands = append(operands, os)
			}
			// A fan-in chain of w operands ends w-2 records deeper than its
			// first link; register the output slot at that final depth so
			// readers sort strictly after it.
			chainEnd := depth + 1
			if len(operands) > 2 {
				chainEnd += int16(len(operands) - 2)
			}
			s = newSlot(chainEnd)
			emitGate(cs, n.Op, operands, s, depth+1, newSlot)
		}
		switch {
		case stuck:
			stamp(id, forceSlot(s, sm))
		case trans:
			// The site net rides in the record so the kernel can look up
			// the cycle-1 launch row feeding the hold-back.
			if int64(id) >= 1<<23 {
				panic("sim: net id exceeds transition force record capacity")
			}
			d := slotDepth(s) + 1
			t := newSlot(d)
			cs.tmp = append(cs.tmp, tmpGate{a: s, b: int32(id)<<8 | int32(tm.mr)<<4 | int32(tm.mf), out: t, op: bopTransForce, depth: d})
			stamp(id, t)
		case needsCompute:
			stamp(id, s)
		default:
			// An unforced PI or flip-flop output inside the union (a cone
			// frontier) stays at its baseline row; readers resolve to it
			// directly.
		}
	}

	cb.gates, cb.runs = orderRecords(cs)

	// Observation points: each member's cone cells and POs, plus the forced
	// captures of DFF D-branch members. In-plane disjointness makes owners
	// unique per (index, plane); sorting by (index, owner) keeps the patch
	// lists ordered like the event engine's and the compile deterministic.
	for k, cone := range owners {
		if cone == nil {
			continue
		}
		for _, ci := range cone.Cells {
			d := c.Nets[c.DFFs[ci]].Fanin[0]
			cb.cells = append(cb.cells, bcap{idx: int32(ci), slot: operand(d), good: int32(d), owner: int32(k)})
		}
		for _, pi := range cone.POs {
			p := c.Outputs[pi]
			cb.pos = append(cb.pos, bcap{idx: int32(pi), slot: operand(p), good: int32(p), owner: int32(k)})
		}
	}
	cb.cells = append(cb.cells, capForces...)
	sortCaps(cb.cells)
	sortCaps(cb.pos)
	cb.nExt = int(nExt)
	return cb
}

// numBops is the number of kernel micro-ops, the op radix of the record
// sort key.
const numBops = int(bopTransForce) + 1

// orderRecords sorts the compiled records by (depth, op) — dependency-safe,
// since a reader's depth strictly exceeds its operands' — with a stable
// counting sort over the key depth·numBops + op, and cuts the ordered
// stream into the opRuns the kernels iterate: maximal same-op streaks,
// with the op hoisted out of the record loop. Records of one key keep
// their emission order, so the result equals a stable comparison sort.
func orderRecords(cs *compileScratch) ([]bgate, []opRun) {
	key := func(t *tmpGate) int { return int(t.depth)*numBops + int(t.op) }
	maxDepth := int16(0)
	for i := range cs.tmp {
		maxDepth = max(maxDepth, cs.tmp[i].depth)
	}
	nKeys := (int(maxDepth) + 1) * numBops
	cs.buckets = slices.Grow(cs.buckets[:0], nKeys)[:nKeys]
	clear(cs.buckets)
	for i := range cs.tmp {
		cs.buckets[key(&cs.tmp[i])]++
	}
	var runs []opRun
	pos := int32(0)
	for k, n := range cs.buckets {
		if n == 0 {
			continue
		}
		op := uint8(k % numBops)
		if last := len(runs) - 1; last >= 0 && runs[last].op == op {
			runs[last].end += n
		} else {
			runs = append(runs, opRun{start: pos, end: pos + n, op: op})
		}
		cs.buckets[k] = pos
		pos += n
	}
	gates := make([]bgate, len(cs.tmp))
	for i := range cs.tmp {
		t := &cs.tmp[i]
		k := key(t)
		gates[cs.buckets[k]] = bgate{a: t.a, b: t.b, out: t.out}
		cs.buckets[k]++
	}
	return gates, runs
}

// emitGate decomposes one gate into binary kernel records, matching
// logic.Eval's left-fold semantics with the inversion applied by the final
// record.
func emitGate(cs *compileScratch, op logic.Op, operands []int32, out int32, depth int16, newSlot func(int16) int32) {
	switch op {
	case logic.OpConst0:
		cs.tmp = append(cs.tmp, tmpGate{out: out, op: bopConst0, depth: depth})
		return
	case logic.OpConst1:
		cs.tmp = append(cs.tmp, tmpGate{out: out, op: bopConst1, depth: depth})
		return
	}
	var base, final uint8
	switch op {
	case logic.OpBuf:
		base, final = bopBuf, bopBuf
	case logic.OpNot:
		base, final = bopBuf, bopNot
	case logic.OpAnd:
		base, final = bopAnd, bopAnd
	case logic.OpNand:
		base, final = bopAnd, bopNand
	case logic.OpOr:
		base, final = bopOr, bopOr
	case logic.OpNor:
		base, final = bopOr, bopNor
	case logic.OpXor:
		base, final = bopXor, bopXor
	case logic.OpXnor:
		base, final = bopXor, bopXnor
	default:
		panic(fmt.Sprintf("sim: cannot compile op %v", op))
	}
	if len(operands) == 1 {
		// Degenerate 1-input gates reduce to BUF/NOT, as in logic.Eval1.
		op := bopBuf
		if final != base {
			op = bopNot
		}
		cs.tmp = append(cs.tmp, tmpGate{a: operands[0], out: out, op: op, depth: depth})
		return
	}
	// Chain the fan-in left to right, each link one depth deeper than the
	// intermediate it reads, so the (depth, op) sort can never lift a link
	// above its producer.
	cur := operands[0]
	d := depth
	for i := 1; i < len(operands)-1; i++ {
		t := newSlot(d)
		cs.tmp = append(cs.tmp, tmpGate{a: cur, b: operands[i], out: t, op: base, depth: d})
		cur = t
		d++
	}
	cs.tmp = append(cs.tmp, tmpGate{a: cur, b: operands[len(operands)-1], out: out, op: final, depth: d})
}

// sortByLevel orders nets by (level, id) — a topological order, since a
// combinational gate's level exceeds all of its fan-ins'.
func sortByLevel(c *circuit.Circuit, nets []circuit.NetID) {
	slices.SortFunc(nets, func(a, b circuit.NetID) int {
		if la, lb := c.Level(a), c.Level(b); la != lb {
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(a, b)
	})
}

func sortCaps(caps []bcap) {
	// Slot-major order makes captureBatch's value-row loads ascend through
	// the scratch, so the scan prefetches well; (owner, idx) break ties —
	// planes sharing a slot, then forced captures on constant slots — for
	// a deterministic compile. Per-member result state is order-insensitive
	// (patch lists hold distinct indices whose application commutes).
	slices.SortFunc(caps, func(a, b bcap) int {
		if a.slot != b.slot {
			return cmp.Compare(a.slot, b.slot)
		}
		if a.owner != b.owner {
			return cmp.Compare(a.owner, b.owner)
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// dedupeNets removes adjacent duplicates from a (level, id)-sorted net
// list in place: equal ids sort adjacently, so one pass suffices.
func dedupeNets(nets []circuit.NetID) []circuit.NetID {
	out := nets[:0]
	for i, id := range nets {
		if i == 0 || id != nets[i-1] {
			out = append(out, id)
		}
	}
	return out
}

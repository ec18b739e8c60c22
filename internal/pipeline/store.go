package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"repro/internal/circuit"
	"repro/internal/codec"
	"repro/internal/pipeline/diskstore"
	"repro/internal/sim"
	"repro/internal/soc"
)

// This file is the tier-2 half of the artifact store: the in-memory LRU
// of cache.go is tier 1, and an attached BlobStore (normally a
// diskstore.Store) is tier 2. Fetch-or-build goes memory → disk → build:
// a disk hit decodes and validates the persisted artifact, promotes it
// into the memory tier, and skips the rebuild entirely (the warm-start
// path); a build writes through to disk so the next process starts warm.
// Entries whose bytes or decoded content fail validation are quarantined
// and rebuilt — corruption can cost time, never correctness.

// String renders the counters as the one-line summary the CLIs print
// with -cachestats; the "disk hits=" clause is what the warm-start CI
// check greps for.
func (s Stats) String() string {
	return fmt.Sprintf(
		"cache: full %d/%d sim %d/%d plan %d/%d hit/miss, evicted %d (%d bytes), disk hits=%d misses=%d writes=%d promotions=%d corruptions=%d",
		s.Hits, s.Misses, s.SimHits, s.SimMisses, s.PlanHits, s.PlanMisses,
		s.Evictions, s.EvictedBytes,
		s.DiskHits, s.DiskMisses, s.DiskWrites, s.Promotions, s.Corruptions)
}

// Store is the tiered artifact store interface the diagnosis layers
// consume; *ArtifactCache implements it (and a nil *ArtifactCache
// degrades every method to an uncached build). It exists as an interface
// for the service and coordinator/worker splits, which will front the
// same operations with remote fetch tiers.
type Store interface {
	Circuit(ct *circuit.Circuit, spec Spec) (*CircuitArtifacts, error)
	SOC(s *soc.SOC, spec Spec) (*SOCArtifacts, error)
	Plan(ct *circuit.Circuit, faults []sim.Fault, opt sim.BatchOptions) *sim.BatchPlan
	TransitionPlan(ct *circuit.Circuit, faults []sim.TransitionFault, opt sim.BatchOptions) *sim.BatchPlan
	PinCircuit(a *CircuitArtifacts) func()
	PinSOC(a *SOCArtifacts) func()
	Stats() Stats
}

var _ Store = (*ArtifactCache)(nil)

// BlobStore is the persistence tier: a flat, content-keyed byte store.
// Implementations must be safe for concurrent use. Get reports a missing
// key with an error wrapping fs.ErrNotExist; any other error is treated
// as corruption.
type BlobStore interface {
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
}

// blobQuarantiner is the optional corrupt-entry hook: when a blob's bytes
// were readable but its decoded content failed validation one layer up,
// the pipeline moves the entry aside so the key misses cleanly from then
// on.
type blobQuarantiner interface {
	Quarantine(key string) error
}

// AttachDisk attaches a persistence tier to the cache. Safe on a nil
// cache (no-op). Attaching replaces any previous tier; it does not
// migrate entries (content addressing makes that unnecessary).
func (c *ArtifactCache) AttachDisk(d BlobStore) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = d
	c.diskDir = ""
	if ds, ok := d.(*diskstore.Store); ok {
		c.diskDir = ds.Dir()
	}
}

// AttachDir opens (creating if needed) a diskstore rooted at dir and
// attaches it as the cache's persistence tier. Idempotent for the same
// directory; attaching a different directory over an existing one is
// rejected, since silently switching tiers mid-process would split the
// artifact namespace.
func (c *ArtifactCache) AttachDir(dir string) error {
	if c == nil {
		return errors.New("pipeline: AttachDir on a nil cache")
	}
	c.mu.Lock()
	attached, prev := c.disk != nil, c.diskDir
	c.mu.Unlock()
	if attached {
		if prev == dir {
			return nil
		}
		return fmt.Errorf("pipeline: cache already persists to %q, cannot switch to %q", prev, dir)
	}
	ds, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return err
	}
	c.AttachDisk(ds)
	return nil
}

// DiskDir returns the attached diskstore's root directory, or "" when the
// cache has no disk tier (or a non-directory BlobStore).
func (c *ArtifactCache) DiskDir() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskDir
}

func (c *ArtifactCache) diskTier() BlobStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// diskFetch reads one blob from the persistence tier, classifying the
// outcome into the disk counters. ok is true only for an intact read.
func (c *ArtifactCache) diskFetch(key string) (data []byte, ok bool) {
	d := c.diskTier()
	if d == nil {
		return nil, false
	}
	data, err := d.Get(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.stats.DiskHits++
		return data, true
	case errors.Is(err, fs.ErrNotExist):
		c.stats.DiskMisses++
	default:
		// The blob tier already quarantined what it could not validate.
		c.stats.Corruptions++
	}
	return nil, false
}

// diskCorrupt records a blob whose bytes were intact but whose decoded
// content failed validation, and quarantines the entry so the next fetch
// rebuilds instead of re-decoding the same bad bytes.
func (c *ArtifactCache) diskCorrupt(key string) {
	d := c.diskTier()
	c.mu.Lock()
	c.stats.Corruptions++
	c.mu.Unlock()
	if q, ok := d.(blobQuarantiner); ok {
		q.Quarantine(key)
	}
}

// diskWrite writes through a freshly built artifact; encoding only runs
// when a tier is attached.
func (c *ArtifactCache) diskWrite(key string, encode func() []byte) {
	d := c.diskTier()
	if d == nil {
		return
	}
	if err := d.Put(key, encode()); err != nil {
		return
	}
	c.mu.Lock()
	c.stats.DiskWrites++
	c.mu.Unlock()
}

func (c *ArtifactCache) notePromotion() {
	c.mu.Lock()
	c.stats.Promotions++
	c.mu.Unlock()
}

// Disk-tier content keys, namespaced by artifact kind over the same
// content identities the memory tier uses. Invalidation is purely
// by-content-key: a changed netlist, pattern budget, or fault list
// produces a different key, and stale entries age out via GC rather than
// being hunted down.
func simDiskKey(simKey string) string    { return "sim|" + simKey }
func socSimDiskKey(simKey string) string { return "socsim|" + simKey }
func conesDiskKey(fp string) string      { return "cones|" + fp }

// fetchSim resolves the circuit simulation layer: disk tier first (decode
// + validate + promote), then a fresh build with write-through.
func (c *ArtifactCache) fetchSim(ct *circuit.Circuit, spec Spec, simKey string) (*simArtifacts, error) {
	dk := simDiskKey(simKey)
	if data, ok := c.diskFetch(dk); ok {
		if fsim, err := codec.DecodeSimLayer(ct, data); err == nil {
			c.notePromotion()
			return simArtifactsOf(fsim), nil
		}
		c.diskCorrupt(dk)
	}
	sa, err := buildSim(ct, spec)
	if err != nil {
		return nil, err
	}
	c.diskWrite(dk, func() []byte { return codec.EncodeSimLayer(sa.fs) })
	return sa, nil
}

func simArtifactsOf(fsim *sim.FaultSim) *simArtifacts {
	sa := &simArtifacts{blocks: fsim.Blocks(), fs: fsim}
	for i := range sa.blocks {
		sa.good = append(sa.good, fsim.Good(i))
	}
	return sa
}

// fetchSOCSim is fetchSim at SOC scope: the persisted artifact carries
// the segment map and every core's layer, so a warm start re-simulates
// no core at all.
func (c *ArtifactCache) fetchSOCSim(s *soc.SOC, spec Spec, simKey string) (*socSimArtifacts, error) {
	dk := socSimDiskKey(simKey)
	if data, ok := c.diskFetch(dk); ok {
		if fsim, err := codec.DecodeSOCSimLayer(s, data); err == nil {
			c.notePromotion()
			return &socSimArtifacts{fs: fsim}, nil
		}
		c.diskCorrupt(dk)
	}
	sa, err := buildSOCSim(s, spec)
	if err != nil {
		return nil, err
	}
	c.diskWrite(dk, func() []byte { return codec.EncodeSOCSimLayer(sa.fs) })
	return sa, nil
}

// fingerprint memoizes CircuitFingerprint per netlist pointer, so plan,
// cone and SOC keys do not rehash the whole structure on every sweep or
// bench lookup. Netlists are immutable after construction; one mutated
// later is caught by the DRC's memoized-cone cross-check
// (drc.RuleConeMismatch), not by re-hashing here.
func (c *ArtifactCache) fingerprint(ct *circuit.Circuit) string {
	c.mu.Lock()
	fp, ok := c.fps[ct]
	c.mu.Unlock()
	if ok {
		return fp
	}
	fp = CircuitFingerprint(ct)
	c.mu.Lock()
	if c.fps == nil {
		c.fps = make(map[*circuit.Circuit]string)
	}
	c.fps[ct] = fp
	c.mu.Unlock()
	return fp
}

// conesState tracks the persisted cone snapshot of one circuit: loaded at
// most once per process, rewritten only when the memoized set grew.
type conesState struct {
	loadOnce sync.Once
	mu       sync.Mutex
	saved    int
}

func (c *ArtifactCache) conesStateOf(ct *circuit.Circuit) *conesState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cones == nil {
		c.cones = make(map[*circuit.Circuit]*conesState)
	}
	cs, ok := c.cones[ct]
	if !ok {
		cs = &conesState{}
		c.cones[ct] = cs
	}
	return cs
}

// loadCones installs the persisted cone snapshot into the circuit before
// the first plan is built on it, so scheduling walks no fan-out frontier
// a previous process already walked.
func (c *ArtifactCache) loadCones(ct *circuit.Circuit) {
	if c.diskTier() == nil {
		return
	}
	cs := c.conesStateOf(ct)
	cs.loadOnce.Do(func() {
		key := conesDiskKey(c.fingerprint(ct))
		data, ok := c.diskFetch(key)
		if !ok {
			return
		}
		n, err := codec.DecodeCones(ct, data)
		if err != nil {
			c.diskCorrupt(key)
			return
		}
		c.notePromotion()
		cs.mu.Lock()
		cs.saved = n
		cs.mu.Unlock()
	})
}

// saveCones persists the circuit's memoized cones when planning grew the
// set beyond what the last snapshot carried.
func (c *ArtifactCache) saveCones(ct *circuit.Circuit) {
	if c.diskTier() == nil {
		return
	}
	cs := c.conesStateOf(ct)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if ct.NumMemoizedCones() <= cs.saved {
		return
	}
	data, n := codec.EncodeCones(ct)
	c.diskWrite(conesDiskKey(c.fingerprint(ct)), func() []byte { return data })
	cs.saved = n
}

// planLanes normalizes the lane cap the way the scheduler does, so the
// content key matches the plan actually built.
func planLanes(opt sim.BatchOptions) int {
	if opt.MaxLanes < 1 || opt.MaxLanes > sim.MaxBatchLanes {
		return sim.MaxBatchLanes
	}
	return opt.MaxLanes
}

// FaultSetHash returns the content hash of a fault list — the same hash
// the plan cache keys schedules by. Shard descriptors (internal/shard)
// carry it so a job names its fault universe the way it names its
// device: by content.
func FaultSetHash(faults []sim.Fault) string { return hashFaults(faults) }

func hashFaults(faults []sim.Fault) string {
	h := sha256.New()
	var buf [16]byte
	for _, f := range faults {
		binary.LittleEndian.PutUint32(buf[0:], uint32(f.Net))
		binary.LittleEndian.PutUint32(buf[4:], uint32(f.Gate))
		binary.LittleEndian.PutUint32(buf[8:], uint32(f.Pin))
		binary.LittleEndian.PutUint32(buf[12:], uint32(f.Stuck))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func hashTransitionFaults(faults []sim.TransitionFault) string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range faults {
		binary.LittleEndian.PutUint32(buf[0:], uint32(f.Net))
		buf[4], buf[5], buf[6], buf[7] = 0, 0, 0, 0
		if f.SlowToRise {
			buf[4] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// planKey is the self-describing content key of a compiled plan. Beyond
// the circuit fingerprint and fault-list hash it carries every knob that
// shapes the compiled record streams: the lane cap, the plane-group word
// width it implies, and the kernel generation (sim.KernelVersion). A cache
// directory written by an older binary therefore never resolves for a
// newer kernel — the plan is rebuilt under the new key, and the stale blob
// ages out via GC (and is quarantined if ever force-fetched, since the
// codec envelope version also moved).
func planKey(fp string, kind sim.BatchKind, n int, faultHash string, opt sim.BatchOptions) string {
	lanes := planLanes(opt)
	width := 64 * sim.PlanesFor(lanes)
	return fmt.Sprintf("plan|%s|kind%d|n%d|f%s|l%d|w%d|k%d|so%t", fp, kind, n, faultHash, lanes, width, sim.KernelVersion, opt.ScanOrder)
}

// planCoversFaults verifies a decoded stuck-at plan against the live
// fault list: every lane must map back to exactly the fault at its
// original index. This is the plan-level counterpart of the wire-batch
// validation — a persisted plan is only trusted to run the sweep that is
// actually being asked for.
func planCoversFaults(p *sim.BatchPlan, faults []sim.Fault, laneCap int) bool {
	if p.Kind() != sim.BatchStuckAt || p.NumFaults() != len(faults) || p.LaneCap() != laneCap {
		return false
	}
	for _, cb := range p.Batches {
		for k, i := range cb.Index {
			if cb.Faults[k] != faults[i] {
				return false
			}
		}
	}
	return true
}

func planCoversTransitionFaults(p *sim.BatchPlan, faults []sim.TransitionFault, laneCap int) bool {
	if p.Kind() != sim.BatchTransition || p.NumFaults() != len(faults) || p.LaneCap() != laneCap {
		return false
	}
	for _, cb := range p.Batches {
		for k, i := range cb.Index {
			if cb.TFaults[k] != faults[i] {
				return false
			}
		}
	}
	return true
}

// Plan returns the compiled batch plan for (circuit, fault list, options),
// building at most once per content key. Tiering mirrors the simulation
// layer: memory LRU, then the disk tier (decode, validate exhaustively,
// promote), then a fresh schedule-and-compile with write-through. A nil
// cache builds fresh. The write-through lands before the entry is costed:
// costing makes it evictable, and a lookup that found it evicted before
// the blob was on disk would build the plan a second time. Plans depend
// only on the circuit and fault list — not the pattern set — so every
// scheme and noise sweep over one fault sample shares a single plan.
func (c *ArtifactCache) Plan(ct *circuit.Circuit, faults []sim.Fault, opt sim.BatchOptions) *sim.BatchPlan {
	if c == nil {
		return sim.PlanBatches(ct, faults, opt)
	}
	key := planKey(c.fingerprint(ct), sim.BatchStuckAt, len(faults), hashFaults(faults), opt)
	e := lookup(c, &c.plans, kindPlan, key, &c.stats.PlanHits, &c.stats.PlanMisses)
	e.once.Do(func() {
		c.loadCones(ct)
		if data, ok := c.diskFetch(key); ok {
			if p, err := codec.DecodeBatchPlan(ct, data); err == nil && planCoversFaults(p, faults, planLanes(opt)) {
				c.notePromotion()
				e.val = p
				c.setCost(e.node, p.MemoryFootprint())
				return
			}
			c.diskCorrupt(key)
		}
		p := sim.PlanBatches(ct, faults, opt)
		e.val = p
		c.diskWrite(key, func() []byte { return codec.EncodeBatchPlan(ct, p) })
		c.saveCones(ct)
		c.setCost(e.node, p.MemoryFootprint())
	})
	return e.val
}

// TransitionPlan is Plan for transition-fault sweeps.
func (c *ArtifactCache) TransitionPlan(ct *circuit.Circuit, faults []sim.TransitionFault, opt sim.BatchOptions) *sim.BatchPlan {
	if c == nil {
		return sim.PlanTransitionBatches(ct, faults, opt)
	}
	key := planKey(c.fingerprint(ct), sim.BatchTransition, len(faults), hashTransitionFaults(faults), opt)
	e := lookup(c, &c.plans, kindPlan, key, &c.stats.PlanHits, &c.stats.PlanMisses)
	e.once.Do(func() {
		c.loadCones(ct)
		if data, ok := c.diskFetch(key); ok {
			if p, err := codec.DecodeBatchPlan(ct, data); err == nil && planCoversTransitionFaults(p, faults, planLanes(opt)) {
				c.notePromotion()
				e.val = p
				c.setCost(e.node, p.MemoryFootprint())
				return
			}
			c.diskCorrupt(key)
		}
		p := sim.PlanTransitionBatches(ct, faults, opt)
		e.val = p
		c.diskWrite(key, func() []byte { return codec.EncodeBatchPlan(ct, p) })
		c.saveCones(ct)
		c.setCost(e.node, p.MemoryFootprint())
	})
	return e.val
}

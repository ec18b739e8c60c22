package pipeline

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Stats counts cache traffic. Hits/Misses track full artifact lookups
// (circuit and SOC); SimHits/SimMisses track the inner simulation layer,
// where a hit means the fault-free machine was not re-simulated even
// though the plan or scan configuration changed. Evictions/EvictedBytes
// count entries discarded to stay within the configured Budget (always
// zero for an unbounded cache).
type Stats struct {
	Hits      int
	Misses    int
	SimHits   int
	SimMisses int
	// Evictions counts entries removed by the budget's LRU policy.
	Evictions int
	// EvictedBytes is the total estimated cost of evicted entries.
	EvictedBytes int64
	// PlanHits/PlanMisses track compiled batch-plan lookups (see Plan and
	// TransitionPlan).
	PlanHits   int
	PlanMisses int
	// Disk-tier counters, all zero when no BlobStore is attached.
	// DiskHits/DiskMisses count persistence-tier reads; Promotions counts
	// artifacts decoded from disk into the memory tier (a promotion saved
	// a rebuild); DiskWrites counts artifacts written through after a
	// build; Corruptions counts entries whose bytes or decoded content
	// failed validation and were quarantined.
	DiskHits    int
	DiskMisses  int
	DiskWrites  int
	Promotions  int
	Corruptions int
}

// Budget bounds an ArtifactCache. The zero value is unbounded — the
// pre-budget behavior, where every artifact built during the process
// lifetime stays cached. Either limit may be set alone.
type Budget struct {
	// MaxBytes caps the summed cost estimate of cached entries; 0 means
	// no byte limit. Pinned and in-flight entries are never evicted, so
	// the cache can transiently exceed the cap while every resident entry
	// is pinned or still building.
	MaxBytes int64
	// MaxEntries caps the number of cached entries (both layers count);
	// 0 means no entry limit.
	MaxEntries int
}

// bounded reports whether any limit is set.
func (b Budget) bounded() bool { return b.MaxBytes > 0 || b.MaxEntries > 0 }

// Entry kinds, one per internal map, so an LRU node knows which map to
// delete itself from.
const (
	kindSim = iota
	kindCirc
	kindSOCSim
	kindSOC
	kindPlan
)

// errCost is the nominal cost charged for a cached build error: enough
// to make error entries evictable, small enough never to displace real
// artifacts.
const errCost = 256

// node is the budget-accounting record of one cache entry. Nodes live on
// the LRU list (front = most recently used); cost is attached only after
// the build completes, and an uncosted or pinned node is never evicted.
type node struct {
	key    string
	kind   int
	bytes  int64
	pins   int
	costed bool
	elem   *list.Element
}

// entry deduplicates one build: the first requester runs the build under
// the once while later requesters block on it and share the result.
type entry[T any] struct {
	once sync.Once
	val  T
	err  error
	node *node
}

// costed is an artifact layer whose build cost setCost can charge; a nil
// value (a failed build) costs errCost.
type costed interface{ cost() int64 }

// buildOnce runs build as e's one build and charges its cost. A panic in
// build is recorded as e's error before it propagates: sync.Once counts
// a panicking build as done, so without the record every later lookup of
// the key would return a nil value with a nil error.
func buildOnce[T costed](c *ArtifactCache, e *entry[T], build func() (T, error)) {
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("pipeline: build panicked: %v", p)
				c.setCost(e.node, errCost)
				panic(p)
			}
		}()
		e.val, e.err = build()
		c.setCost(e.node, e.val.cost())
	})
}

// ArtifactCache content-addresses build artifacts so repeated runs and
// sweep points sharing (device, scan configuration, plan, patterns) reuse
// one Artifacts value instead of re-simulating. It is safe for concurrent
// use, and a nil *ArtifactCache is valid: every lookup simply builds
// fresh, which keeps cache-free call sites unconditional.
//
// With a Budget set, the cache evicts least-recently-used entries once a
// limit is exceeded, accounting each entry at its estimated byte cost
// (see MemoryFootprint on the simulators and engine). Eviction only
// forgets an entry — holders of the returned artifacts keep valid,
// immutable values; Pin keeps an in-flight diagnosis session's entries
// resident so concurrent benches keep sharing them.
type ArtifactCache struct {
	mu      sync.Mutex
	budget  Budget
	sims    map[string]*entry[*simArtifacts]
	circs   map[string]*entry[*CircuitArtifacts]
	socSims map[string]*entry[*socSimArtifacts]
	socs    map[string]*entry[*SOCArtifacts]
	plans   map[string]*entry[*sim.BatchPlan]
	lru     *list.List // of *node
	bytes   int64
	stats   Stats

	// Tier 2 (see store.go): an optional persistence tier plus the
	// per-circuit bookkeeping the disk keys need.
	disk    BlobStore
	diskDir string
	fps     map[*circuit.Circuit]string
	cones   map[*circuit.Circuit]*conesState
}

// NewCache returns an empty, unbounded artifact cache.
func NewCache() *ArtifactCache { return &ArtifactCache{} }

// NewCacheWithBudget returns an empty cache bounded by b.
func NewCacheWithBudget(b Budget) *ArtifactCache { return &ArtifactCache{budget: b} }

// Stats returns a snapshot of the cache counters.
func (c *ArtifactCache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached entries across both layers (including
// entries whose build is still in flight).
func (c *ArtifactCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		return 0
	}
	return c.lru.Len()
}

// Bytes returns the summed cost estimate of the cached entries. Entries
// still building are accounted at zero until their cost is known.
func (c *ArtifactCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the cache's current budget.
func (c *ArtifactCache) Budget() Budget {
	if c == nil {
		return Budget{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// SetBudget replaces the budget and immediately evicts down to the new
// limits. A zero Budget removes all bounds. Safe on a nil cache (no-op).
func (c *ArtifactCache) SetBudget(b Budget) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = b
	c.evictLocked()
}

// lookup returns the entry for key in m, creating it on a miss. The hit
// and miss counters are advanced under the cache lock; the caller runs
// the build outside it via the entry's once and then reports the build
// cost through setCost.
func lookup[T any](c *ArtifactCache, m *map[string]*entry[T], kind int, key string, hits, misses *int) *entry[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *m == nil {
		*m = make(map[string]*entry[T])
	}
	if c.lru == nil {
		c.lru = list.New()
	}
	if e, ok := (*m)[key]; ok {
		*hits++
		c.lru.MoveToFront(e.node.elem)
		return e
	}
	e := &entry[T]{node: &node{key: key, kind: kind}}
	e.node.elem = c.lru.PushFront(e.node)
	(*m)[key] = e
	*misses++
	return e
}

// setCost attaches the completed build's cost to its node and enforces
// the budget. Idempotent: only the goroutine that ran the build reports.
func (c *ArtifactCache) setCost(n *node, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n.costed {
		return
	}
	n.costed = true
	n.bytes = bytes
	c.bytes += bytes
	c.evictLocked()
}

// evictLocked removes least-recently-used, unpinned, fully built entries
// until the cache is within budget (or nothing more can go).
func (c *ArtifactCache) evictLocked() {
	if !c.budget.bounded() || c.lru == nil {
		return
	}
	over := func() bool {
		return (c.budget.MaxBytes > 0 && c.bytes > c.budget.MaxBytes) ||
			(c.budget.MaxEntries > 0 && c.lru.Len() > c.budget.MaxEntries)
	}
	for el := c.lru.Back(); el != nil && over(); {
		n := el.Value.(*node)
		prev := el.Prev()
		if n.pins == 0 && n.costed {
			c.removeLocked(n)
		}
		el = prev
	}
}

// removeLocked drops one entry from its map, the LRU list, and the byte
// account.
func (c *ArtifactCache) removeLocked(n *node) {
	switch n.kind {
	case kindSim:
		delete(c.sims, n.key)
	case kindCirc:
		delete(c.circs, n.key)
	case kindSOCSim:
		delete(c.socSims, n.key)
	case kindSOC:
		delete(c.socs, n.key)
	case kindPlan:
		delete(c.plans, n.key)
	}
	c.lru.Remove(n.elem)
	c.bytes -= n.bytes
	c.stats.Evictions++
	c.stats.EvictedBytes += n.bytes
}

// pin raises the pin count of the node holding key (if still cached) and
// returns it for release bookkeeping.
func (c *ArtifactCache) pin(kind int, key string) *node {
	if key == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n *node
	switch kind {
	case kindSim:
		if e, ok := c.sims[key]; ok {
			n = e.node
		}
	case kindCirc:
		if e, ok := c.circs[key]; ok {
			n = e.node
		}
	case kindSOCSim:
		if e, ok := c.socSims[key]; ok {
			n = e.node
		}
	case kindSOC:
		if e, ok := c.socs[key]; ok {
			n = e.node
		}
	}
	if n != nil {
		n.pins++
	}
	return n
}

// release lowers pin counts and re-enforces the budget, since entries
// protected while pinned may now be evictable.
func (c *ArtifactCache) release(nodes []*node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		if n != nil && n.pins > 0 {
			n.pins--
		}
	}
	c.evictLocked()
}

// pinKeys pins both layers of an artifact and returns the idempotent
// release closure shared by PinCircuit and PinSOC.
func (c *ArtifactCache) pinKeys(fullKind int, fullKey string, simKind int, simKey string) func() {
	if c == nil || (fullKey == "" && simKey == "") {
		return func() {}
	}
	nodes := []*node{c.pin(fullKind, fullKey), c.pin(simKind, simKey)}
	var once sync.Once
	return func() { once.Do(func() { c.release(nodes) }) }
}

// PinCircuit marks a's cache entries (full and simulation layer) as in
// use, excluding them from eviction until the returned release function
// is called. Pinning is advisory — it keeps entries resident so
// concurrent benches sharing the content key reuse them mid-session; the
// artifact value itself stays valid either way. Safe (a no-op) on a nil
// cache, an artifact built without a cache, or an already-evicted entry;
// release is idempotent.
func (c *ArtifactCache) PinCircuit(a *CircuitArtifacts) func() {
	if a == nil {
		return func() {}
	}
	return c.pinKeys(kindCirc, a.cacheKey, kindSim, a.simCacheKey)
}

// PinSOC is PinCircuit for SOC artifacts.
func (c *ArtifactCache) PinSOC(a *SOCArtifacts) func() {
	if a == nil {
		return func() {}
	}
	return c.pinKeys(kindSOC, a.cacheKey, kindSOCSim, a.simCacheKey)
}

// cost estimators; see MemoryFootprint on sim.FaultSim, soc.FaultSim and
// bist.Engine. The full layer charges only what it adds on top of the
// simulation layer it references (the engine tables).
func (sa *simArtifacts) cost() int64 {
	if sa == nil {
		return errCost
	}
	return sa.fs.MemoryFootprint()
}

func (a *CircuitArtifacts) cost() int64 {
	if a == nil {
		return errCost
	}
	return a.Engine.MemoryFootprint()
}

func (sa *socSimArtifacts) cost() int64 {
	if sa == nil {
		return errCost
	}
	return sa.fs.MemoryFootprint()
}

func (a *SOCArtifacts) cost() int64 {
	if a == nil {
		return errCost
	}
	return a.Engine.MemoryFootprint()
}

// Circuit returns the artifacts for (ct, spec), building at most once per
// content key. The simulation layer is cached separately, so a new scheme
// or scan configuration over an already-simulated circuit rebuilds only
// partitions and signatures. On a miss the engine is built beside the
// simulation layer on a helper goroutine (see setUp); a hit starts no
// goroutine.
func (c *ArtifactCache) Circuit(ct *circuit.Circuit, spec Spec) (*CircuitArtifacts, error) {
	spec = spec.Normalized()
	engine := func() (engineParts, error) { return circuitEngine(ct, spec) }
	if c == nil {
		sa, ep, err := setUp(func() (*simArtifacts, error) { return buildSim(ct, spec) }, engine)
		if err != nil {
			return nil, err
		}
		return buildCircuit(ct, spec, sa, ep), nil
	}
	fp := c.fingerprint(ct)
	key, simKey := spec.Key(fp), spec.simKey(fp)
	e := lookup(c, &c.circs, kindCirc, key, &c.stats.Hits, &c.stats.Misses)
	buildOnce(c, e, func() (*CircuitArtifacts, error) {
		se := lookup(c, &c.sims, kindSim, simKey, &c.stats.SimHits, &c.stats.SimMisses)
		sa, ep, err := setUp(func() (*simArtifacts, error) {
			buildOnce(c, se, func() (*simArtifacts, error) { return c.fetchSim(ct, spec, simKey) })
			return se.val, se.err
		}, engine)
		if err != nil {
			return nil, err
		}
		a := buildCircuit(ct, spec, sa, ep)
		a.cacheKey, a.simCacheKey = key, simKey
		return a, nil
	})
	return e.val, e.err
}

// SOC is the SOC-level counterpart of Circuit with the same two-level
// structure: the per-core pattern expansion and fault-free simulation are
// shared across plans and TAM widths.
func (c *ArtifactCache) SOC(s *soc.SOC, spec Spec) (*SOCArtifacts, error) {
	spec = spec.Normalized()
	engine := func() (engineParts, error) { return socEngine(s, spec) }
	if c == nil {
		sa, ep, err := setUp(func() (*socSimArtifacts, error) { return buildSOCSim(s, spec) }, engine)
		if err != nil {
			return nil, err
		}
		return buildSOC(s, spec, sa, ep), nil
	}
	fp := socFingerprint(s, c.fingerprint)
	key, simKey := spec.Key(fp), spec.simKey(fp)
	e := lookup(c, &c.socs, kindSOC, key, &c.stats.Hits, &c.stats.Misses)
	buildOnce(c, e, func() (*SOCArtifacts, error) {
		se := lookup(c, &c.socSims, kindSOCSim, simKey, &c.stats.SimHits, &c.stats.SimMisses)
		sa, ep, err := setUp(func() (*socSimArtifacts, error) {
			buildOnce(c, se, func() (*socSimArtifacts, error) { return c.fetchSOCSim(s, spec, simKey) })
			return se.val, se.err
		}, engine)
		if err != nil {
			return nil, err
		}
		a := buildSOC(s, spec, sa, ep)
		a.cacheKey, a.simCacheKey = key, simKey
		return a, nil
	})
	return e.val, e.err
}

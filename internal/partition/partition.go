// Package partition implements the scan-chain partitioning schemes the
// paper studies. A Partition assigns every chain position to one of b
// groups; one BIST session per group collects a signature over just that
// group's cells. Schemes generate sequences of partitions:
//
//   - RandomSelection: the LFSR-label scheme of Rajski & Tyszer — each
//     position's group is an r-bit label read from an LFSR clocked once per
//     shift, so groups are pseudorandom scattered subsets.
//   - Interval: the paper's contribution — groups are consecutive runs of
//     cells whose pseudorandom lengths are read from an LFSR, with seeds
//     chosen so b intervals exactly cover the chain.
//   - FixedInterval: the deterministic equal-length baseline of
//     Bayraktaroglu & Orailoglu, with rotating boundaries across partitions.
//   - TwoStep: a small number of interval partitions followed by
//     random-selection partitions — the paper's proposed method.
package partition

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/lfsr"
)

// Partition assigns each chain position to a group.
type Partition struct {
	GroupOf   []int // GroupOf[pos] = group index in [0, NumGroups)
	NumGroups int
}

// Len returns the number of chain positions.
func (p *Partition) Len() int { return len(p.GroupOf) }

// Groups returns the positions of each group, ascending within a group.
func (p *Partition) Groups() [][]int {
	gs := make([][]int, p.NumGroups)
	for pos, g := range p.GroupOf {
		gs[g] = append(gs[g], pos)
	}
	return gs
}

// Validate checks group indices are within range.
func (p *Partition) Validate() error {
	for pos, g := range p.GroupOf {
		if g < 0 || g >= p.NumGroups {
			return fmt.Errorf("partition: position %d in out-of-range group %d", pos, g)
		}
	}
	return nil
}

// IsIntervalPartition reports whether every group's positions form one
// contiguous run.
func (p *Partition) IsIntervalPartition() bool {
	for _, g := range p.Groups() {
		for i := 1; i < len(g); i++ {
			if g[i] != g[i-1]+1 {
				return false
			}
		}
	}
	return true
}

// Scheme generates the first k partitions of a chain of n cells into b
// groups. Implementations are deterministic: the same arguments always
// yield the same partitions.
type Scheme interface {
	Name() string
	Partitions(n, b, k int) ([]Partition, error)
}

// ExtraRegisters is implemented by schemes whose selection hardware needs
// registers beyond the base Figure-1 set (LFSR, IVR, Test Counter 1, Shift
// Counter 1, Pattern Counter). The paper's two-step architecture adds
// exactly Shift Counter 2 and Test Counter 2.
type ExtraRegisters interface {
	// ExtraRegisterBits returns the additional register bits for a chain
	// of n cells partitioned into b groups.
	ExtraRegisterBits(n, b int) int
}

// ExtraRegisterBits implements ExtraRegisters: Shift Counter 2 holds an
// interval length (AutoLenBits plus the truncation margin up to the chain
// length) and Test Counter 2 counts groups.
func (s Interval) ExtraRegisterBits(n, b int) int {
	s = s.withDefaults(n, b)
	// Shift Counter 2 must count down from up to 2^LenBits.
	return s.LenBits + 1 + labelBits(b)
}

// ExtraRegisterBits implements ExtraRegisters by delegating to the
// interval step: the random-selection partitions bypass the two extra
// registers but the hardware still carries them.
func (s TwoStep) ExtraRegisterBits(n, b int) int {
	return s.Interval.ExtraRegisterBits(n, b)
}

// ExtraRegisterBits implements ExtraRegisters for the deterministic
// baseline: equal-length blocks with rotating boundaries need a block-size
// register and an offset register, each as wide as a chain position — and,
// not captured by a bit count, the position-divider compare logic the paper
// calls "expensive control logic in the selection hardware". Its resolution
// can match or beat two-step (every partition is interval-shaped); its cost
// is why the paper rejects it.
func (FixedInterval) ExtraRegisterBits(n, b int) int {
	return 2 * labelBits(n)
}

func checkArgs(n, b, k int) error {
	if n < 1 {
		return fmt.Errorf("partition: chain length %d < 1", n)
	}
	if b < 1 || b > n {
		return fmt.Errorf("partition: group count %d outside [1, %d]", b, n)
	}
	if k < 0 {
		return fmt.Errorf("partition: partition count %d < 0", k)
	}
	return nil
}

// labelBits returns the label width r = ceil(log2 b) used by the selection
// hardware's Test Counter 1 comparison.
func labelBits(b int) int {
	if b <= 1 {
		return 1
	}
	return bits.Len(uint(b - 1))
}

// RandomSelection is the classical scheme: during each partition the LFSR
// is clocked once per scan shift, and position j belongs to the group whose
// number matches the r low state bits (reduced mod b when b is not a power
// of two). At the end of each partition the Initial Value Register is
// updated with the LFSR's current state, which re-labels every position for
// the next partition.
type RandomSelection struct {
	Poly lfsr.Poly // feedback polynomial; zero selects degree 16
	Seed uint64    // initial IVR contents; zero selects 0xACE1
}

// Name implements Scheme.
func (RandomSelection) Name() string { return "random-selection" }

func (s RandomSelection) withDefaults() RandomSelection {
	if s.Poly == 0 {
		s.Poly = lfsr.MustPrimitivePoly(16)
	}
	if s.Seed == 0 {
		s.Seed = 0xACE1
	}
	return s
}

// Partitions implements Scheme.
func (s RandomSelection) Partitions(n, b, k int) ([]Partition, error) {
	if err := checkArgs(n, b, k); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	l, err := lfsr.New(s.Poly, s.Seed)
	if err != nil {
		return nil, err
	}
	r := labelBits(b)
	if r > l.Degree() {
		return nil, fmt.Errorf("partition: %d groups need %d label bits, LFSR has %d", b, r, l.Degree())
	}
	parts := make([]Partition, k)
	for t := 0; t < k; t++ {
		p := Partition{GroupOf: make([]int, n), NumGroups: b}
		for j := 0; j < n; j++ {
			p.GroupOf[j] = int(l.Label(r)) % b
			l.Step()
		}
		// The LFSR state after n shifts is written back to the IVR and
		// seeds the next partition; nothing to do, l already holds it.
		parts[t] = p
	}
	return parts, nil
}

// Interval is the paper's interval-based scheme. Group lengths are read
// from the low LenBits state bits of an LFSR seeded from the IVR (a zero
// reading counts as 2^LenBits, since Shift Counter 2 would wrap through a
// full count); after each interval the carry clocks the LFSR a LenBits-long
// burst so the next reading is fresh. Seeds are chosen so that b intervals
// cover the whole chain with none empty.
type Interval struct {
	Poly    lfsr.Poly // feedback polynomial; zero selects degree 16
	LenBits int       // k bits per length, at most Poly's degree; zero derives from (n, b)
	Seeds   []uint64  // explicit per-partition seeds; empty triggers search
}

// Name implements Scheme.
func (Interval) Name() string { return "interval" }

func (s Interval) withDefaults(n, b int) Interval {
	if s.Poly == 0 {
		s.Poly = lfsr.MustPrimitivePoly(16)
	}
	if s.LenBits == 0 {
		s.LenBits = AutoLenBits(n, b)
	}
	return s
}

// AutoLenBits picks the length-field width k whose mean reading
// ((2^k + 1)/2 for uniform readings over 1..2^k) is closest to the target
// interval length n/b. Centring the mean on n/b makes "the first b−1
// intervals fall short of the chain and the b-th crosses it" the typical
// outcome, so covering seeds are plentiful and diverse.
func AutoLenBits(n, b int) int {
	target := float64(n) / float64(b)
	best, bestErr := 1, 1e18
	for k := 1; k <= 16; k++ {
		mean := (float64(int(1)<<uint(k)) + 1) / 2
		err := mean - target
		if err < 0 {
			err = -err
		}
		if err < bestErr {
			best, bestErr = k, err
		}
	}
	return best
}

// Lengths reads the b interval lengths the hardware would produce from the
// given seed: the low k bits of the state (zero read as 2^k), clocking the
// LFSR k times after each interval so successive readings use fresh state
// bits. (A single clock would leave adjacent readings sharing k−1 bits,
// collapsing almost all covering seeds onto one partition; the k-cycle
// burst is the same carry signal driving a short pulse train.)
func Lengths(l *lfsr.LFSR, k, b int) []int {
	lengths := make([]int, b)
	for i := 0; i < b; i++ {
		v := int(l.Label(k))
		if v == 0 {
			v = 1 << uint(k)
		}
		lengths[i] = v
		for s := 0; s < k; s++ {
			l.Step()
		}
	}
	return lengths
}

// coverError checks that the lengths cover a chain of n cells in exactly b
// non-empty intervals: the first b−1 sums to less than n and all b to at
// least n (the final interval is truncated at the chain end).
func coverError(lengths []int, n int) error {
	sum := 0
	for i, ln := range lengths {
		if sum >= n {
			return fmt.Errorf("interval %d starts beyond chain end (empty group)", i)
		}
		sum += ln
	}
	if sum < n {
		return fmt.Errorf("intervals cover only %d of %d cells", sum, n)
	}
	return nil
}

// MaxSearchDegree is the largest LFSR degree FindSeeds searches. The
// search visits all 2^d − 1 register states and holds them in memory
// (4·2^d bytes, 64 MiB at the maximum), so a polynomial from an untrusted
// source, such as a shard job, must not make it walk 2^40 states.
const MaxSearchDegree = 24

// FindSeeds selects count IVR seeds whose length sequences cover a chain of
// n cells in exactly b intervals. The paper notes that seeds are
// pre-computed and "carefully selected"; this search implements that
// selection:
//
//  1. every seed of the register is considered and seeds that repeat
//     another seed's interval boundaries are deduplicated, keeping the
//     smallest (a repeated partition adds sessions without information);
//  2. covering partitions are ranked by balance (smallest maximum interval
//     first) — a partition with one huge interval resolves poorly;
//  3. from the balanced pool, seeds are picked greedily to maximise how
//     much their cut positions differ from the already-picked ones, so
//     successive interval partitions refine rather than repeat each other.
//
// An error is returned when fewer than count distinct covering partitions
// exist, when the geometry is invalid (k outside [1, degree], or b outside
// [1, n]), or when the polynomial's degree exceeds MaxSearchDegree.
func FindSeeds(poly lfsr.Poly, k, n, b, count int) ([]uint64, error) {
	if k > poly.Degree() {
		return nil, fmt.Errorf("partition: length field %d wider than LFSR degree %d", k, poly.Degree())
	}
	if k < 1 {
		return nil, fmt.Errorf("partition: length field %d narrower than one bit", k)
	}
	if count <= 0 {
		return nil, nil
	}
	if err := checkArgs(n, b, count); err != nil {
		return nil, err
	}
	l, err := lfsr.New(poly, 1)
	if err != nil {
		return nil, err
	}
	if d := l.Degree(); d > MaxSearchDegree {
		return nil, fmt.Errorf("partition: interval seed search over a degree-%d LFSR (2^%d seeds) exceeds the maximum degree %d",
			d, d, MaxSearchDegree)
	}
	cy := walkCycles(l)
	pool, bounds := balancedPool(cy, coveringSeeds(cy, k, n, b), k, n, b, count*64)
	if len(pool) < count {
		return nil, fmt.Errorf("partition: only %d of %d distinct covering partitions exist for n=%d b=%d k=%d",
			len(pool), count, n, b, k)
	}
	// Pick for boundary diversity: each round takes the first candidate
	// farthest from its nearest already-picked partition. dist[i] is that
	// nearest distance, updated against the newest pick only.
	seeds := make([]uint64, 0, count)
	used := make([]bool, len(pool))
	dist := make([]int, len(pool))
	for i := range dist {
		dist[i] = 1 << 62
	}
	for pick := 0; ; {
		seeds = append(seeds, pool[pick])
		used[pick] = true
		if len(seeds) == count {
			return seeds, nil
		}
		last := bounds[pick*b : (pick+1)*b]
		bestIdx, bestDist := -1, -1
		for i := range pool {
			if used[i] {
				continue
			}
			dist[i] = min(dist[i], cutDistance(bounds[i*b:(i+1)*b], last))
			if dist[i] > bestDist {
				bestIdx, bestDist = i, dist[i]
			}
		}
		pick = bestIdx
	}
}

// stateCycles holds every cycle of a register's state graph. With a
// constant term the feedback map permutes the 2^d − 1 nonzero states, so
// they fall into disjoint cycles (exactly one for a primitive polynomial).
type stateCycles struct {
	states []uint32 // every cycle in stepping order, laid end to end
	starts []int    // starts[c]: offset of cycle c; a last entry len(states)
}

// walkCycles steps l's feedback map through every cycle of its state
// graph once. It steps a local register, as lfsr.LFSR.Step does, and
// leaves l as it was.
func walkCycles(l *lfsr.LFSR) stateCycles {
	top := uint(l.Degree())
	poly := uint64(l.Poly())
	total := uint64(1)<<top - 1
	cy := stateCycles{states: make([]uint32, 0, total), starts: []int{0}}
	visited := make([]uint64, total/64+1)
	for start := uint64(1); uint64(len(cy.states)) < total; start++ {
		if visited[start/64]>>(start%64)&1 != 0 {
			continue
		}
		for s := start; ; {
			visited[s/64] |= 1 << (s % 64)
			cy.states = append(cy.states, uint32(s))
			s <<= 1
			if s ^= poly & -(s >> top & 1); s == start {
				break
			}
		}
		cy.starts = append(cy.starts, len(cy.states))
	}
	return cy
}

// coveringSeeds returns a key maxLen<<32 | pos for every seed of the
// register whose b interval lengths, read k bits wide, cover a chain of n
// cells in b non-empty intervals. pos is the seed's offset in cy.states,
// and maxLen the longest interval, the last truncated at the chain end.
//
// Instead of clocking a fresh register through Lengths for every seed, it
// reads the stored cycles. When seed s sits at position p of a cycle of
// length L, Lengths takes reading i after i·k clocks, from the state at
// position (p + i·k) mod L: every seed's readings are the stored cycle's
// states k apart, masked to k bits.
//
// Stepping k positions splits a cycle into gcd(k mod L, L) stride orbits,
// and along an orbit the readings of consecutive seeds are windows of b
// readings that share b−1 of them. A running sum of the window's first b−1
// readings, S(b−1), then answers the coverage test S(b−1) < n ≤ S(b) in
// O(1) per seed, and only covering seeds pay O(b) for their maxLen.
func coveringSeeds(cy stateCycles, k, n, b int) []uint64 {
	mask := uint32(1)<<uint(k) - 1
	full := 1 << uint(k)
	var keys []uint64
	for c := 0; c+1 < len(cy.starts); c++ {
		base := cy.starts[c]
		cycle := cy.states[base:cy.starts[c+1]]
		size := len(cycle)
		step := k % size
		read := func(p int) int {
			if v := int(cycle[p] & mask); v != 0 {
				return v
			}
			return full
		}
		next := func(p int) int {
			if p += step; p >= size {
				p -= size
			}
			return p
		}
		orbits := gcd(step, size)
		orbitLen := size / orbits
		for o := 0; o < orbits; o++ {
			// p is the seed's position, last that of its b-th reading,
			// and sum the total of its first b−1 readings.
			p, last, sum := o, o, 0
			for i := 0; i < b-1; i++ {
				sum += read(last)
				last = next(last)
			}
			for t := 0; t < orbitLen; t++ {
				in := read(last)
				if sum < n && sum+in >= n {
					maxLen := n - sum
					for i, q := 0, p; i < b-1; i++ {
						maxLen = max(maxLen, read(q))
						q = next(q)
					}
					keys = append(keys, uint64(maxLen)<<32|uint64(base+p))
				}
				sum += in - read(p)
				p, last = next(p), next(last)
			}
		}
	}
	return keys
}

// balancedPool returns the up to maxPool most balanced distinct partitions
// among the covering seeds' keys, ranked by (maxLen, seed): each
// partition's smallest seed, and its b cut positions at
// bounds[c·b : (c+1)·b].
//
// In that order the first seed met of each partition is its smallest,
// since all seeds of one partition share its maxLen, and the first maxPool
// partitions met are the pool. Deduplication stops there instead of
// indexing every covering seed.
func balancedPool(cy stateCycles, keys []uint64, k, n, b, maxPool int) (pool []uint64, bounds []int) {
	slices.Sort(keys) // by maxLen; ties by position, sorted by seed below
	seedOf := func(key uint64) uint32 { return cy.states[uint32(key)] }
	size := min(maxPool, len(keys))
	pool, bounds = make([]uint64, 0, size), make([]int, 0, size*b)
	dedup := keyTable{heads: make(map[uint64]int32, size), next: make([]int32, 0, size)}
	for lo := 0; lo < len(keys) && len(pool) < maxPool; {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		level := keys[lo:hi]
		slices.SortFunc(level, func(x, y uint64) int { return cmp.Compare(seedOf(x), seedOf(y)) })
		for _, key := range level {
			if len(pool) == maxPool {
				break
			}
			c := len(pool)
			bounds = bounds[:(c+1)*b] // within the capacity, as c < size
			cuts := bounds[c*b:]
			cy.cuts(int(uint32(key)), k, n, cuts)
			if dedup.find(cuts[:b-1], bounds, b) {
				bounds = bounds[:c*b]
				continue
			}
			dedup.add(cuts[:b-1], c)
			pool = append(pool, uint64(seedOf(key)))
		}
		lo = hi
	}
	return pool, bounds
}

// cuts stores the cut positions of the len(cuts) intervals that the seed
// at offset pos of cy.states reads, k bits wide, the last at the chain
// end n.
func (cy stateCycles) cuts(pos, k, n int, cuts []int) {
	c, _ := slices.BinarySearch(cy.starts, pos+1)
	base, size := cy.starts[c-1], cy.starts[c]-cy.starts[c-1]
	step, p, at := k%size, pos-base, 0
	for j := range cuts {
		v := int(cy.states[base+p] & (1<<uint(k) - 1))
		if v == 0 {
			v = 1 << uint(k)
		}
		at += v
		cuts[j] = at
		if p += step; p >= size {
			p -= size
		}
	}
	cuts[len(cuts)-1] = n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// keyTable indexes FindSeeds' pool by its partitions' cuts without a
// string key per partition: a hash maps to the newest partition with that
// hash, and next chains the older ones.
type keyTable struct {
	heads map[uint64]int32
	next  []int32 // next[c]: older partition with c's hash, or −1
}

// find reports whether a partition in bounds, stride entries apart, starts
// with the cuts key.
func (t *keyTable) find(key, bounds []int, stride int) bool {
	c, ok := t.heads[hashKey(key)]
	if !ok {
		return false
	}
	for ; c >= 0; c = t.next[c] {
		off := int(c) * stride
		if slices.Equal(bounds[off:off+len(key)], key) {
			return true
		}
	}
	return false
}

// add records partition c, whose cuts start with key.
func (t *keyTable) add(key []int, c int) {
	h := hashKey(key)
	prev, ok := t.heads[h]
	if !ok {
		prev = -1
	}
	t.heads[h] = int32(c)
	t.next = append(t.next, prev)
}

// hashKey mixes the cuts FNV-1a style, one word at a time.
func hashKey(key []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range key {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// cutDistance sums the absolute offsets between two partitions' cut
// positions — zero means identical cuts.
func cutDistance(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

// Partitions implements Scheme.
func (s Interval) Partitions(n, b, k int) ([]Partition, error) {
	if err := checkArgs(n, b, k); err != nil {
		return nil, err
	}
	s = s.withDefaults(n, b)
	if d := s.Poly.Degree(); s.LenBits < 1 || s.LenBits > d {
		return nil, fmt.Errorf("partition: interval length field %d outside [1, %d], the LFSR degree", s.LenBits, d)
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		var err error
		seeds, err = FindSeeds(s.Poly, s.LenBits, n, b, k)
		if err != nil {
			return nil, err
		}
	}
	if len(seeds) < k {
		return nil, fmt.Errorf("partition: %d seeds supplied for %d interval partitions", len(seeds), k)
	}
	parts := make([]Partition, k)
	for t := 0; t < k; t++ {
		l, err := lfsr.New(s.Poly, seeds[t])
		if err != nil {
			return nil, err
		}
		lengths := Lengths(l, s.LenBits, b)
		if err := coverError(lengths, n); err != nil {
			return nil, fmt.Errorf("partition: seed %#x: %w", seeds[t], err)
		}
		p := Partition{GroupOf: make([]int, n), NumGroups: b}
		pos := 0
		for g, ln := range lengths {
			for i := 0; i < ln && pos < n; i++ {
				p.GroupOf[pos] = g
				pos++
			}
		}
		parts[t] = p
	}
	return parts, nil
}

// FixedInterval is the deterministic baseline: every group is a contiguous
// block of ⌈n/b⌉ cells, and partition t rotates the block boundaries by
// t·⌈n/b⌉/k positions (cyclically), so successive partitions cut the chain
// at different points.
type FixedInterval struct{}

// Name implements Scheme.
func (FixedInterval) Name() string { return "fixed-interval" }

// Partitions implements Scheme.
func (FixedInterval) Partitions(n, b, k int) ([]Partition, error) {
	if err := checkArgs(n, b, k); err != nil {
		return nil, err
	}
	block := (n + b - 1) / b
	parts := make([]Partition, k)
	for t := 0; t < k; t++ {
		offset := 0
		if k > 1 {
			offset = t * block / k
		}
		p := Partition{GroupOf: make([]int, n), NumGroups: b}
		for j := 0; j < n; j++ {
			p.GroupOf[j] = ((j + offset) / block) % b
		}
		parts[t] = p
	}
	return parts, nil
}

// TwoStep is the paper's proposed scheme: the first IntervalPartitions
// partitions come from the interval scheme (coarse-grained pruning of
// clustered failures), the remainder from random selection (fine-grained
// resolution).
type TwoStep struct {
	IntervalPartitions int // number of leading interval partitions; zero selects 1
	Interval           Interval
	Random             RandomSelection
}

// Name implements Scheme.
func (TwoStep) Name() string { return "two-step" }

// Partitions implements Scheme.
func (s TwoStep) Partitions(n, b, k int) ([]Partition, error) {
	if err := checkArgs(n, b, k); err != nil {
		return nil, err
	}
	m := s.IntervalPartitions
	if m == 0 {
		m = 1
	}
	if m > k {
		m = k
	}
	parts, err := s.Interval.Partitions(n, b, m)
	if err != nil {
		return nil, err
	}
	if k > m {
		rest, err := s.Random.Partitions(n, b, k-m)
		if err != nil {
			return nil, err
		}
		parts = append(parts, rest...)
	}
	return parts, nil
}

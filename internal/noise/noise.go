// Package noise models an unreliable tester for scan-BIST diagnosis: an
// intermittent (marginal) defect that is active on only a fraction of
// patterns, session verdicts that are occasionally reported wrong by the
// ATE, and sessions that abort without producing any verdict. All noise is
// deterministic for a fixed seed — every coin is a stateless hash of
// (seed, session coordinates), so a run can be replayed bit-for-bit and
// independent sessions draw independent coins regardless of evaluation
// order.
package noise

import (
	"fmt"
	"math"
)

// Model configures the unreliable-tester fault-injection layer. The zero
// value is a perfect tester: the fault is active on every pattern, no
// verdict is flipped, and no session aborts.
type Model struct {
	// Intermittent is the probability that the injected fault is active on
	// any one pattern of a session. Zero means 1 (a deterministic,
	// always-active fault); values in (0, 1) model marginal defects that
	// fire only sometimes. Each session execution draws fresh per-pattern
	// activity.
	Intermittent float64
	// Flip is the probability that one session execution reports the wrong
	// verdict: an observed failure comes back as the golden signature, or a
	// clean run comes back with a corrupted signature.
	Flip float64
	// Abort is the probability that one session execution aborts and
	// yields no signature at all.
	Abort float64
	// Seed makes the whole noise process reproducible. Runs with equal
	// seeds and parameters draw identical coins.
	Seed uint64
}

// ActivationProb returns the effective per-pattern activation probability
// (the zero value of Intermittent normalises to 1).
func (m Model) ActivationProb() float64 {
	if m.Intermittent == 0 {
		return 1
	}
	return m.Intermittent
}

// Enabled reports whether the model injects any noise at all. A disabled
// model lets callers keep the exact deterministic code path.
func (m Model) Enabled() bool {
	return m.ActivationProb() < 1 || m.Flip > 0 || m.Abort > 0
}

// Validate checks that every probability is a probability. NaN is not:
// it fails every comparison, so a NaN coin threshold would silently never
// fire.
func (m Model) Validate() error {
	if p := m.Intermittent; !(p >= 0 && p <= 1) {
		return fmt.Errorf("noise: intermittent probability %v outside [0, 1]", p)
	}
	if !(m.Flip >= 0 && m.Flip <= 1) {
		return fmt.Errorf("noise: flip probability %v outside [0, 1]", m.Flip)
	}
	if !(m.Abort >= 0 && m.Abort <= 1) {
		return fmt.Errorf("noise: abort probability %v outside [0, 1]", m.Abort)
	}
	return nil
}

// Fork derives a model with the same parameters but an independent seed
// substream, e.g. one per injected fault, so per-fault noise is independent
// yet reproducible and insensitive to the order faults are diagnosed in.
func (m Model) Fork(ids ...uint64) Model {
	h := m.Seed
	for _, id := range ids {
		h = mix(h, id)
	}
	m.Seed = h
	return m
}

// Coin-stream tags keep the different noise processes decorrelated even
// when their session coordinates coincide.
const (
	tagActive uint64 = 0xA11CE + iota
	tagFlip
	tagAbort
	tagCorrupt
)

// ActiveAt draws the per-pattern activation coin for one session execution:
// true when the fault fires on pattern `pat` during attempt `attempt` of
// session (t, slot). All error bits of one pattern share the coin.
func (m Model) ActiveAt(t, slot, attempt, pat int) bool {
	p := m.ActivationProb()
	if p >= 1 {
		return true
	}
	return coin(m.Seed, tagActive, uint64(t), uint64(slot), uint64(attempt), uint64(pat)) < p
}

// Flips draws the verdict-flip coin for one session execution.
func (m Model) Flips(t, slot, attempt int) bool {
	if m.Flip <= 0 {
		return false
	}
	return coin(m.Seed, tagFlip, uint64(t), uint64(slot), uint64(attempt)) < m.Flip
}

// Aborts draws the abort coin for one session execution.
func (m Model) Aborts(t, slot, attempt int) bool {
	if m.Abort <= 0 {
		return false
	}
	return coin(m.Seed, tagAbort, uint64(t), uint64(slot), uint64(attempt)) < m.Abort
}

// Corrupt returns the nonzero garbage signature a pass-to-fail flip
// reports for one session execution.
func (m Model) Corrupt(t, slot, attempt int) uint64 {
	v := hash(m.Seed, tagCorrupt, uint64(t), uint64(slot), uint64(attempt))
	if v == 0 {
		v = 1
	}
	return v
}

// Session is the coin source of one session (t, slot). Every coin hashes
// (seed, tag, t, slot, attempt[, pat]), and hash is a left fold of mix, so
// each stream's prefix is folded once for all the sessions that share it:
// Streams folds (seed, tag) once per model, Fold adds one coordinate, and
// session (t, slot) is m.Streams().Fold(t).Fold(slot). An execution's
// abort and flip coins then cost one mix each, and an activation coin one
// mix over its attempt's prefix. The corrupt stream is read only when a
// flip fires, so its last two coordinates — a session's t and slot — are
// kept pending and folded by Corrupt, not by every Fold. A coin fires
// when the top 53 bits of its hash fall below the integer threshold of
// its probability (threshold), which is unit(h) < p without the float
// conversion. Every coin equals the matching Model method bit for bit.
type Session struct {
	active, flip, abort, corrupt uint64 // stream prefixes; corrupt lacks pend
	pend                         [2]uint64
	npend                        int    // coordinates in pend, oldest first
	activeT, flipT, abortT       uint64 // coin thresholds
}

// Streams folds the (seed, tag) prefix of every coin stream, for Fold to
// extend by session coordinates.
func (m Model) Streams() Session {
	seed := mix(hashInit, m.Seed)
	return Session{
		active: mix(seed, tagActive), flip: mix(seed, tagFlip), abort: mix(seed, tagAbort), corrupt: mix(seed, tagCorrupt),
		activeT: threshold(m.ActivationProb()), flipT: threshold(m.Flip), abortT: threshold(m.Abort),
	}
}

// Fold returns s with one more coordinate folded into every stream; the
// corrupt stream folds its oldest pending coordinate only when a third
// arrives.
func (s Session) Fold(id int) Session {
	s.active = mix(s.active, uint64(id))
	s.flip = mix(s.flip, uint64(id))
	s.abort = mix(s.abort, uint64(id))
	if s.npend == len(s.pend) {
		s.corrupt = mix(s.corrupt, s.pend[0])
		s.pend[0], s.npend = s.pend[1], 1
	}
	s.pend[s.npend] = uint64(id)
	s.npend++
	return s
}

// Aborts is Model.Aborts(t, slot, attempt).
func (s *Session) Aborts(attempt int) bool {
	return s.abortT != 0 && mix(s.abort, uint64(attempt))>>11 < s.abortT
}

// Flips is Model.Flips(t, slot, attempt).
func (s *Session) Flips(attempt int) bool {
	return s.flipT != 0 && mix(s.flip, uint64(attempt))>>11 < s.flipT
}

// Corrupt is Model.Corrupt(t, slot, attempt).
func (s *Session) Corrupt(attempt int) uint64 {
	h := s.corrupt
	for _, id := range s.pend[:s.npend] {
		h = mix(h, id)
	}
	if v := mix(h, uint64(attempt)); v != 0 {
		return v
	}
	return 1
}

// Active folds the values of the patterns on which the fault fires during
// one execution: x is the XOR of vals[i] over every i with
// Model.ActiveAt(t, slot, attempt, pats[i]), and hit reports whether there
// was such an i. The loop has no branch on the coins: each compare becomes
// an all-ones or all-zero mask by the sign bit of h − threshold, since
// both are at most 2^53.
func (s *Session) Active(attempt int, pats []int32, vals []uint64) (x uint64, hit bool) {
	if len(pats) == 0 {
		return 0, false
	}
	vals = vals[:len(pats)]
	if s.activeT >= 1<<53 { // every coin fires
		for _, v := range vals {
			x ^= v
		}
		return x, len(pats) > 0
	}
	a, thr := mix(s.active, uint64(attempt)), s.activeT
	var on uint64
	for i, p := range pats {
		o := -((mix(a, uint64(p))>>11 - thr) >> 63)
		x ^= vals[i] & o
		on |= o
	}
	return x, on != 0
}

// threshold is the integer form of a coin's probability p: for every hash
// h, h>>11 < threshold(p) exactly when unit(h) < p. It is ceil(p·2^53),
// and both sides are exact: h>>11 < 2^53 is an integer that float64 holds,
// scaling by 2^53 is exact, and an integer lies below a real exactly when
// it lies below the real's ceiling. p ≤ 0 and NaN never fire (0); p ≥ 1
// always does (2^53).
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// coin maps a hash of the ids to [0, 1).
func coin(ids ...uint64) float64 {
	return unit(hash(ids...))
}

// unit maps a hash to [0, 1) by its top 53 bits.
func unit(h uint64) float64 {
	return float64(h>>11) * (1.0 / (1 << 53))
}

// hashInit is the fold state hash starts from.
const hashInit uint64 = 0x9E3779B97F4A7C15

// hash folds the ids into one well-mixed 64-bit value. It is a left fold
// of mix, so a shared prefix of ids can be folded once (see Session).
func hash(ids ...uint64) uint64 {
	h := hashInit
	for _, id := range ids {
		h = mix(h, id)
	}
	return h
}

// mix is the splitmix64 finalizer over h ^ v — a cheap, high-quality
// stateless PRF step.
func mix(h, v uint64) uint64 {
	z := h ^ v + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

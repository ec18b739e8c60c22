package bist

import (
	"context"

	"repro/internal/retry"
	"repro/internal/sim"
)

// This file holds the engine's resilience surface: deadline-aware
// partition-by-partition verdict collection (the substrate of degraded-
// mode diagnosis) and the bridge from the session RetryPolicy to the
// repository-wide retry.Policy vocabulary.

// Policy expresses the session retry schedule in the shared
// internal/retry vocabulary: one attempt plus MaxRetries re-executions,
// with no backoff (session re-execution is not a load-shedding wait).
// The pipeline executor consumes the same Policy type for transient job
// failures, so PR 1's session-abort retries and the executor's worker
// retries are two callers of one policy abstraction. The voting
// semantics of NoisyVerdicts are unchanged: the policy only fixes how
// many executions are scheduled.
func (rp RetryPolicy) Policy() retry.Policy {
	return retry.Policy{MaxAttempts: rp.Runs()}
}

// VerdictsUpTo collects session verdicts partition by partition,
// checking ctx between partitions, and returns the number of partitions
// observed. A cancellation or deadline mid-collection leaves v holding
// the completed prefix (later rows are all-pass/no-signature) and
// returns that prefix length with ctx's error; the caller degrades to a
// prefix diagnosis (diagnosis.DiagnosePartial), which is sound because
// partition intersection only ever shrinks the candidate set.
//
// For a fully observed run the verdicts equal Verdicts bit-for-bit: the
// per-partition fold consumes the same per-error-bit contributions, just
// grouped partition-major so a deadline can land between sessions the
// way it would on a real tester.
func (e *Engine) VerdictsUpTo(ctx context.Context, good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) (int, error) {
	c := e.sessionContribs(good, faulty, blocks)
	defer e.arenas.Put(c)
	for t := range v.Fail {
		for i := range v.Fail[t] {
			v.Fail[t][i] = false
			v.ErrSig[t][i] = 0
		}
	}
	v.Unknown = nil
	for t := 0; t < e.plan.Partitions; t++ {
		if err := ctx.Err(); err != nil {
			return t, err
		}
		for slot := 0; slot < e.vgroups; slot++ {
			var sig uint64
			active := false
			for _, i := range c.session(t*e.vgroups + slot) {
				sig ^= c.bits[i].syn
				active = true
			}
			if e.plan.Ideal {
				v.Fail[t][slot] = active
			} else {
				v.Fail[t][slot] = sig != 0
			}
			v.ErrSig[t][slot] = sig
		}
	}
	return e.plan.Partitions, nil
}

// MemoryFootprint estimates the bytes of read-only state the engine
// retains: the syndrome table (one word per shift clock of the session)
// and the per-chain partition maps. Feeds the pipeline cache's
// cost-accounted eviction.
func (e *Engine) MemoryFootprint() int64 {
	const word = 8
	n := int64(len(e.xp)+len(e.chainOf)+len(e.posOf)) * word
	for _, chain := range e.parts {
		for _, p := range chain {
			n += int64(len(p.GroupOf)) * word
		}
	}
	return n
}

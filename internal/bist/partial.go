package bist

import (
	"context"

	"repro/internal/bitset"
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

// VerdictsUpTo is VerdictsInto under a deadline: it polls ctx once per
// partition, the way a deadline lands between sessions on a real tester,
// and returns the number of partitions observed. A cancellation before
// partition t zeroes rows t onward (all-pass, no signature) and returns t
// with ctx's error; the caller diagnoses v.Prefix(t), a sound superset
// because partition intersection only ever shrinks the candidate set. A
// fully observed run returns (Partitions, nil) and leaves v exactly as
// VerdictsInto does. Like VerdictsInto it scans every cell for the
// failing ones; CellVerdictsUpTo takes them from the caller.
func (e *Engine) VerdictsUpTo(ctx context.Context, good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) (int, error) {
	cells := e.failingCells(good, faulty, blocks)
	defer e.cellSets.Put(cells)
	return e.CellVerdictsUpTo(ctx, cells, good, faulty, blocks, v)
}

// CellVerdictsUpTo is VerdictsUpTo over a known failing-cell set, the
// per-fault verdict step of every sweep: cells must hold every cell whose
// faulty words differ from the good ones (the simulator's
// Result.FailingCells). Only those cells' words are read, so the step
// costs the fault's errors; a superset gives the same verdicts.
func (e *Engine) CellVerdictsUpTo(ctx context.Context, cells *bitset.Set, good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) (int, error) {
	e.cellVerdicts(cells, good, faulty, blocks, v)
	for t := range v.Fail {
		if err := ctx.Err(); err != nil {
			for u := t; u < len(v.Fail); u++ {
				clear(v.Fail[u])
				clear(v.ErrSig[u])
			}
			return t, err
		}
	}
	return len(v.Fail), nil
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

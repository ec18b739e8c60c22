package core

import "repro/internal/diagnosis"

// MergeObserved aggregates per-fault diagnoses produced elsewhere — by
// shard workers, by other processes, by any path that yields the same
// FaultDiagnosis values RunObserved would have — into a Study, in slot
// order. It is the merge half of the coordinator/worker split
// (internal/shard): each result slot corresponds to one fault of the
// global fault list, nil slots mark faults whose shard failed or was
// cancelled.
//
// It is also the local sweep's aggregator: a sweep clears its results
// past the first nil, so a cancelled sweep reports the contiguous prefix
// it finished ("ran out of time after fault n"). The merge itself
// accepts gaps: a dead worker punches a hole in the middle of the fault
// list, and every completed shard around it is still sound and worth
// reporting. Completeness records Observed (non-nil slots) against
// Scheduled so callers can see exactly how degraded the study is.
//
// Aggregation order is slot-major: Study totals and the observe
// callback see fault i before fault j whenever i < j, regardless of
// which shard, worker, or process produced them — this is what makes a
// multi-worker run's output bit-identical to the single-process sweep
// when no slot is nil.
//
// Every non-nil diagnosis must be complete (CandidatesByPartition
// covering all of o.Partitions, as RunObserved produces); partially
// collected diagnoses should be dropped to nil by the caller, the way
// a shard failure drops its whole slice.
func MergeObserved(o Options, schemeName string, results []*FaultDiagnosis, observe func(*FaultDiagnosis)) *Study {
	o = o.withDefaults()
	study := newStudy(o, schemeName)
	observed := 0
	for _, fd := range results {
		if fd == nil {
			continue
		}
		observed++
		if observe != nil {
			observe(fd)
		}
		study.add(fd)
	}
	study.Completeness = diagnosis.Completeness{Observed: observed, Scheduled: len(results)}
	return study
}

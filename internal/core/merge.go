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
// It shares the local sweep's aggregator: each diagnosis is reduced to
// the summary a sweep's worker writes (faultSummary) and added by the
// same Study.add. Unlike a sweep, which keeps only the contiguous prefix
// it finished ("ran out of time after fault n"), the merge accepts gaps:
// a dead worker punches a hole in the middle of the fault list, and
// every completed shard around it is still sound and worth reporting.
// Completeness records Observed (non-nil slots) against Scheduled so
// callers can see exactly how degraded the study is.
//
// The observe callback sees fault i before fault j whenever i < j,
// regardless of which shard, worker, or process produced them. Study
// totals are integer sums, so they equal the single-process sweep's
// whenever no slot is nil.
//
// Every non-nil diagnosis must be complete (CandidatesByPartition
// covering all of o.Partitions, as RunObserved produces); partially
// collected diagnoses should be dropped to nil by the caller, the way
// a shard failure drops its whole slice.
func MergeObserved(o Options, schemeName string, results []*FaultDiagnosis, observe func(*FaultDiagnosis)) *Study {
	o = o.withDefaults()
	study := newStudy(o, schemeName)
	var sum faultSummary
	byPart := make([]int32, o.Partitions)
	observed := 0
	for _, fd := range results {
		if fd == nil {
			continue
		}
		observed++
		if observe != nil {
			observe(fd)
		}
		fd.summary(&sum, byPart)
		study.add(&sum, byPart)
	}
	study.Completeness = diagnosis.Completeness{Observed: observed, Scheduled: len(results)}
	return study
}

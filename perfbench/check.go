package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/bist"
	"repro/internal/core"
	"repro/internal/diagnosis"
)

// summary is the part of a study the benchmark checks: DR by partition,
// full and pruned DR, the diagnosed count, misses, and under a noisy
// tester the baseline and the tester's reliability counters.
type summary struct {
	Diagnosed, Undetected int
	ByPartition           []diagnosis.DR
	Full, Pruned          diagnosis.DR
	Misses                int
	BaselineFull          diagnosis.DR
	BaselineMisses        int
	Reliability           bist.Reliability
}

// String renders the summary canonically; equal summaries render equally.
func (s summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosed=%d undetected=%d full=%v pruned=%v misses=%d baseline=%v/%d reliability=%+v by-partition=",
		s.Diagnosed, s.Undetected, s.Full, s.Pruned, s.Misses, s.BaselineFull, s.BaselineMisses, s.Reliability)
	for _, dr := range s.ByPartition {
		fmt.Fprintf(&b, "%v;", dr)
	}
	return b.String()
}

// fromStudy extracts the checked fields of a study. An incomplete study
// is an error: the benchmark never cancels a sweep.
func fromStudy(st *core.Study) (summary, error) {
	if !st.Completeness.Complete() {
		return summary{}, fmt.Errorf("study covers %d of %d faults", st.Completeness.Observed, st.Completeness.Scheduled)
	}
	return summary{
		Diagnosed:      st.Diagnosed,
		Undetected:     st.Undetected,
		ByPartition:    append([]diagnosis.DR(nil), st.ByPartition...),
		Full:           st.Full,
		Pruned:         st.Pruned,
		Misses:         st.Misses,
		BaselineFull:   st.BaselineFull,
		BaselineMisses: st.BaselineMisses,
		Reliability:    st.Reliability,
	}, nil
}

// tally aggregates per-fault diagnoses into a summary. It is written here
// rather than borrowed from core so that the reference path shares no
// aggregation code with the program under test.
func tally(partitions int, fds []*core.FaultDiagnosis) summary {
	s := summary{ByPartition: make([]diagnosis.DR, partitions)}
	for _, fd := range fds {
		if !fd.Detected {
			s.Undetected++
			continue
		}
		s.Diagnosed++
		actual := fd.Actual.Len()
		for k := range s.ByPartition {
			s.ByPartition[k].Add(fd.CandidatesByPartition[k], actual)
		}
		s.Full.Add(fd.Result.Candidates.Len(), actual)
		s.Pruned.Add(fd.Result.Pruned.Len(), actual)
		if !fd.Result.Pruned.SupersetOf(fd.Actual) {
			s.Misses++
		}
		if fd.Baseline != nil {
			s.BaselineFull.Add(fd.Baseline.Candidates.Len(), actual)
			if !fd.Baseline.Pruned.SupersetOf(fd.Actual) {
				s.BaselineMisses++
			}
		}
		if fd.Reliability != nil {
			s.Reliability.Merge(fd.Reliability)
		}
	}
	return s
}

// matches reports whether an operation's studies equal the reference
// studies of its sample, one per sweep.
func matches(got, want []summary) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			return false
		}
	}
	return true
}

// digest hashes the studies of every sample, in sample order, so two runs
// of the same seed can be compared exactly.
func digest(studies [][]summary) string {
	h := sha256.New()
	for k, ss := range studies {
		for i, s := range ss {
			fmt.Fprintf(h, "sample %d sweep %d %s\n", k, i, s)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

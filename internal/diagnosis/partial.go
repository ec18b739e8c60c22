package diagnosis

// Completeness records how much of a scheduled workload a degraded run
// actually observed — partitions of a session, faults of a sweep — so a
// partial result carries its own confidence label instead of
// masquerading as a full one.
type Completeness struct {
	// Observed is the number of units (partitions, faults) whose results
	// are reflected in the accompanying data.
	Observed int
	// Scheduled is the number of units a full run would have covered.
	Scheduled int
}

// Complete reports whether nothing was cut short.
func (c Completeness) Complete() bool { return c.Observed >= c.Scheduled }

// Fraction returns Observed/Scheduled in [0, 1]; a zero-scheduled
// workload counts as complete.
func (c Completeness) Fraction() float64 {
	if c.Scheduled <= 0 {
		return 1
	}
	f := float64(c.Observed) / float64(c.Scheduled)
	if f > 1 {
		return 1
	}
	return f
}

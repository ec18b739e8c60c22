package soc

// MemoryFootprint estimates the bytes of shared, read-only state this
// SOC-scope FaultSim retains: every core's fault simulator (pattern
// blocks, fault-free responses and net values) plus the assembled global
// responses. Fork-owned scratch is excluded, so a fork reports its root's
// footprint. Feeds the pipeline cache's cost-accounted eviction.
func (fs *FaultSim) MemoryFootprint() int64 {
	const word = 8
	var n int64
	for _, s := range fs.root {
		n += s.MemoryFootprint()
	}
	for _, r := range fs.good {
		n += int64(len(r.Next)+len(r.PO)) * word
	}
	return n
}

package shard

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// The planner splits a fault list into shards balanced by simulation
// cost, not by count. Cost per fault is the size of its net's fanout
// cone — the number of scan cells the fault can reach — which tracks
// both event-simulation work and the activity-driven effort the
// diagnosis spends on it (the ADI intuition of Pomeranz & Reddy: a
// fault's work is proportional to the state it can disturb). Round-robin
// by index would put every hub fault of a region in the same shard;
// LPT over cone sizes keeps shard wall-clocks within one max-fault of
// optimal.

// Shard is one unit of remote work: the global indices of the faults it
// covers, ascending. Indices key the verdict deltas the worker returns.
type Shard struct {
	Indices []int
	cost    int
}

// Cost reports the shard's summed fault cost (cone cells + 1 per fault).
func (s *Shard) Cost() int { return s.cost }

// StuckAtCosts weighs each fault by its net's cone population.
func StuckAtCosts(c *circuit.Circuit, faults []sim.Fault) []int {
	costs := make([]int, len(faults))
	for i, f := range faults {
		costs[i] = len(c.Cone(f.Net).Cells) + 1
	}
	return costs
}

// UniformCosts weighs every fault equally; used where no circuit is at
// hand (chain-diagnosis injections all cost roughly the same anyway).
func UniformCosts(n int) []int {
	costs := make([]int, n)
	for i := range costs {
		costs[i] = 1
	}
	return costs
}

// PlanShards splits n faults into at most shards pieces using longest-
// processing-time-first over costs: faults sorted by descending cost,
// each assigned to the currently lightest shard. Ties break toward the
// lower fault index and the lower shard id, so the plan is a pure
// function of (costs, shards). Empty shards are dropped; each shard's
// Indices come out ascending. costs must have length n; shards < 1 is
// treated as 1.
func PlanShards(costs []int, shards int) []*Shard {
	n := len(costs)
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	out := make([]*Shard, shards)
	for i := range out {
		out[i] = &Shard{}
	}
	for _, fi := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if out[s].cost < out[best].cost {
				best = s
			}
		}
		out[best].Indices = append(out[best].Indices, fi)
		out[best].cost += costs[fi]
	}
	kept := out[:0]
	for _, s := range out {
		if len(s.Indices) == 0 {
			continue
		}
		sort.Ints(s.Indices)
		kept = append(kept, s)
	}
	return kept
}

// spreadFactor is how many shards the coordinator plans per worker:
// finer shards keep a straggler from idling the rest of the pool and
// bound the re-run after a worker death to 1/(workers×spread) of the
// sweep.
const spreadFactor = 4

// DefaultShards picks the shard count for a pool of workers when the
// caller didn't: spreadFactor shards per worker, at least one.
func DefaultShards(workers int) int {
	if workers < 1 {
		workers = 1
	}
	return workers * spreadFactor
}

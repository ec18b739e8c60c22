package soc

import (
	"fmt"

	"repro/internal/sim"
)

// CoreSims returns the per-core fault simulators, in daisy-chain order.
// The simulators are the FaultSim's own (on a fork, any core not yet used
// is forked now); callers must treat them as read-only (fork before
// injecting faults concurrently).
func (fs *FaultSim) CoreSims() []*sim.FaultSim {
	for i := range fs.sims {
		fs.core(i)
	}
	return fs.sims
}

// NewFaultSimFromCores assembles an SOC-scope FaultSim from per-core
// simulators that already carry their fault-free layers (typically decoded
// from a persisted artifact), re-deriving the global good responses and
// the engine-shaped blocks instead of re-simulating any core. The
// simulators must match the SOC's cores one-to-one and agree on the block
// structure, since the TestRail applies every pattern to all cores in the
// same session.
func NewFaultSimFromCores(s *SOC, sims []*sim.FaultSim) (*FaultSim, error) {
	if len(sims) != len(s.Cores) {
		return nil, fmt.Errorf("soc %s: %d core simulators for %d cores", s.Name, len(sims), len(s.Cores))
	}
	fs := &FaultSim{soc: s, root: sims, sims: sims}
	nBlocks := -1
	for i, c := range s.Cores {
		if sims[i].Circuit() != c.Circuit {
			return nil, fmt.Errorf("soc %s: simulator %d is for circuit %s, core %s has %s",
				s.Name, i, sims[i].Circuit().Name, c.Name, c.Circuit.Name)
		}
		blocks := sims[i].Blocks()
		if nBlocks < 0 {
			nBlocks = len(blocks)
		} else if len(blocks) != nBlocks {
			return nil, fmt.Errorf("soc %s: core %s has %d pattern blocks, core %s has %d",
				s.Name, c.Name, len(blocks), s.Cores[0].Name, nBlocks)
		}
		fs.patterns = append(fs.patterns, blocks)
	}
	for bi := 0; bi < nBlocks; bi++ {
		n := fs.patterns[0][bi].N
		for i := range s.Cores {
			if fs.patterns[i][bi].N != n {
				return nil, fmt.Errorf("soc %s: block %d has %d patterns on core %s, %d on core %s",
					s.Name, bi, fs.patterns[i][bi].N, s.Cores[i].Name, n, s.Cores[0].Name)
			}
		}
		g := &sim.Response{Next: make([]uint64, s.total)}
		for i := range s.Cores {
			lo, _ := s.CellRange(i)
			copy(g.Next[lo:], sims[i].Good(bi).Next)
		}
		fs.good = append(fs.good, g)
		fs.shape = append(fs.shape, &sim.Block{N: n})
	}
	return fs, nil
}

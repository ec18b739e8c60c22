// Package pipeline layers the diagnosis flow into content-keyed build
// artifacts and a deterministic batched execution engine.
//
// Building a diagnosis environment is expensive — pattern expansion,
// fault-free simulation of the whole machine, partition tables, golden
// signatures — while running it is where the time should go. The package
// therefore splits the flow into an immutable Artifacts value built once
// per content key and an ArtifactCache that deduplicates builds: repeated
// runs and experiment sweep points sharing (circuit, scan configuration,
// plan, patterns) reuse the same artifacts instead of re-simulating.
// The cache is two-level: the simulation layer (pattern blocks plus
// fault-free responses) is keyed only by (netlist, PRPG, pattern count),
// so sweeping partitioning schemes over one circuit rebuilds only the
// cheap partition tables. Executor complements the store with a batched
// worker pool whose results are independent of the worker count.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/soc"
)

// Spec is the content key of a diagnosis environment: every input that
// shapes the build artifacts (pattern blocks, fault-free responses,
// partitions, syndrome tables) and nothing else. Runtime knobs — worker
// counts, tester noise, retry budgets, vote thresholds — are deliberately
// absent, so runs differing only in those share artifacts bit-for-bit.
type Spec struct {
	Scheme     partition.Scheme
	Groups     int
	Partitions int
	Patterns   int
	PRPGSeed   uint64
	PRPGPoly   lfsr.Poly
	MISRPoly   lfsr.Poly
	Ideal      bool
	Chains     int
	ScanOrder  []int // nil selects the natural (structural) order
}

// Normalized resolves the spec's defaulted fields (PRPG seed and
// polynomial, chain count, MISR polynomial) to their concrete values, so
// equal effective configurations produce equal cache keys.
func (s Spec) Normalized() Spec {
	if s.PRPGSeed == 0 {
		s.PRPGSeed = 0xACE1
	}
	if s.PRPGPoly == 0 {
		s.PRPGPoly = lfsr.MustPrimitivePoly(16)
	}
	if s.Chains == 0 {
		s.Chains = 1
	}
	s.MISRPoly = bist.Plan{MISRPoly: s.MISRPoly}.Normalized().MISRPoly
	return s
}

// simKey identifies the simulation-level artifacts. Pattern blocks and
// fault-free responses depend only on the netlist and the PRPG run — not
// on how cells are chained or partitioned — so this key deliberately
// ignores the scheme, plan, and scan configuration.
func (s Spec) simKey(fingerprint string) string {
	return fmt.Sprintf("%s|p%d|seed%x|poly%x", fingerprint, s.Patterns, s.PRPGSeed, uint64(s.PRPGPoly))
}

// Key identifies the full artifact set for a device with the given
// fingerprint. The partitioning scheme is keyed by its concrete type and
// exported parameters (%T%+v), which prints the partition package's plain
// value schemes uniquely; an overridden scan order contributes a hash.
func (s Spec) Key(fingerprint string) string {
	return fmt.Sprintf("%s|scheme(%T%+v)|b%d|k%d|misr%x|ideal%t|ch%d|order%s",
		s.simKey(fingerprint), s.Scheme, s.Scheme, s.Groups, s.Partitions,
		uint64(s.MISRPoly), s.Ideal, s.Chains, hashOrder(s.ScanOrder))
}

func hashOrder(order []int) string {
	if order == nil {
		return "natural"
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range order {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// CircuitFingerprint hashes a netlist's full structure — name, gate
// operations, and connectivity — so caches keyed on it never confuse
// distinct netlists, while structurally identical rebuilds share a key.
//
// The hashed stream is "circuit <name>\n", then per net its name, a
// space, its op in decimal and its fan-in NetIDs as 64-bit little-endian
// words, then '\n'; then the input, output and flip-flop lists, each as a
// word count followed by its NetID words. It is assembled in a reused
// buffer and flushed to the hash in chunks.
func CircuitFingerprint(c *circuit.Circuit) string {
	const chunk = 16 << 10
	h := sha256.New()
	buf := make([]byte, 0, chunk+512)
	flush := func() {
		if len(buf) >= chunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = append(buf, "circuit "...)
	buf = append(buf, c.Name...)
	buf = append(buf, '\n')
	for i := range c.Nets {
		n := &c.Nets[i]
		buf = append(buf, n.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(n.Op), 10)
		for _, f := range n.Fanin {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f))
			flush()
		}
		buf = append(buf, '\n')
		flush()
	}
	for _, ids := range [][]circuit.NetID{c.Inputs, c.Outputs, c.DFFs} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
			flush()
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// SOCFingerprint hashes an SOC's identity: its name and each core's name
// and netlist fingerprint in daisy-chain order.
func SOCFingerprint(s *soc.SOC) string {
	return socFingerprint(s, CircuitFingerprint)
}

// socFingerprint is SOCFingerprint with the per-core netlist hash drawn
// from fp, so the cache can supply its per-pointer memo and hash only the
// few core lines on a lookup.
func socFingerprint(s *soc.SOC, fp func(*circuit.Circuit) string) string {
	h := sha256.New()
	fmt.Fprintf(h, "soc %s\n", s.Name)
	for _, c := range s.Cores {
		fmt.Fprintf(h, "core %s %s\n", c.Name, fp(c.Circuit))
	}
	return hex.EncodeToString(h.Sum(nil))
}

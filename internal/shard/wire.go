// Package shard implements the coordinator/worker runtime that fans a
// diagnosis sweep out over worker processes: the fault list of a
// circuit or of one SOC core (or a chain sweep's injections) is
// partitioned into shards, each shard travels as a compact
// content-keyed descriptor over a length-prefixed binary protocol
// (internal/codec's sealed envelopes on TCP or Unix sockets), and
// workers rebuild every heavy artifact through their own ArtifactCache —
// typically attached to a shared -cachedir — before returning per-unit
// results. The coordinator merges them slot-major, so a sharded run's
// study and observe order are bit-identical to the single-process sweep
// regardless of shard count or worker count.
package shard

import (
	"fmt"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/lfsr"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/sim"
)

// schemeToWire flattens one of the four built-in partitioning schemes.
// A custom Scheme implementation cannot be named over the wire and is
// rejected: the worker must reconstruct the exact scheme, not a lookalike.
func schemeToWire(s partition.Scheme) (codec.WireScheme, error) {
	switch v := s.(type) {
	case partition.TwoStep:
		return codec.WireScheme{
			Kind:                      codec.SchemeTwoStep,
			TwoStepIntervalPartitions: uint32(v.IntervalPartitions),
			IntervalPoly:              uint64(v.Interval.Poly),
			IntervalLenBits:           uint32(v.Interval.LenBits),
			IntervalSeeds:             v.Interval.Seeds,
			RandomPoly:                uint64(v.Random.Poly),
			RandomSeed:                v.Random.Seed,
		}, nil
	case partition.RandomSelection:
		return codec.WireScheme{
			Kind:       codec.SchemeRandom,
			RandomPoly: uint64(v.Poly),
			RandomSeed: v.Seed,
		}, nil
	case partition.Interval:
		return codec.WireScheme{
			Kind:            codec.SchemeInterval,
			IntervalPoly:    uint64(v.Poly),
			IntervalLenBits: uint32(v.LenBits),
			IntervalSeeds:   v.Seeds,
		}, nil
	case partition.FixedInterval:
		return codec.WireScheme{Kind: codec.SchemeFixed}, nil
	}
	return codec.WireScheme{}, fmt.Errorf("shard: scheme %T cannot be named over the wire", s)
}

func schemeFromWire(w codec.WireScheme) (partition.Scheme, error) {
	switch w.Kind {
	case codec.SchemeTwoStep:
		return partition.TwoStep{
			IntervalPartitions: int(w.TwoStepIntervalPartitions),
			Interval: partition.Interval{
				Poly:    lfsr.Poly(w.IntervalPoly),
				LenBits: int(w.IntervalLenBits),
				Seeds:   w.IntervalSeeds,
			},
			Random: partition.RandomSelection{
				Poly: lfsr.Poly(w.RandomPoly),
				Seed: w.RandomSeed,
			},
		}, nil
	case codec.SchemeRandom:
		return partition.RandomSelection{Poly: lfsr.Poly(w.RandomPoly), Seed: w.RandomSeed}, nil
	case codec.SchemeInterval:
		return partition.Interval{
			Poly:    lfsr.Poly(w.IntervalPoly),
			LenBits: int(w.IntervalLenBits),
			Seeds:   w.IntervalSeeds,
		}, nil
	case codec.SchemeFixed:
		return partition.FixedInterval{}, nil
	}
	return nil, fmt.Errorf("shard: unknown scheme kind %d", w.Kind)
}

// optionsToWire splits core.Options into the artifact-shaping spec and
// the runtime knobs. Worker-local fields (Workers, Cache, CacheDir,
// CacheBudget, StrictDRC) deliberately do not travel: each worker
// applies its own.
func optionsToWire(o core.Options) (codec.WireSpec, codec.WireKnobs, error) {
	sch, err := schemeToWire(o.Scheme)
	if err != nil {
		return codec.WireSpec{}, codec.WireKnobs{}, err
	}
	spec := codec.WireSpec{
		Scheme:     sch,
		Groups:     uint32(o.Groups),
		Partitions: uint32(o.Partitions),
		Patterns:   uint32(o.Patterns),
		PRPGSeed:   o.PRPGSeed,
		PRPGPoly:   uint64(o.PRPGPoly),
		MISRPoly:   uint64(o.MISRPoly),
		Ideal:      o.Ideal,
		Chains:     uint32(o.Chains),
	}
	if o.ScanOrder != nil {
		spec.ScanOrder = make([]uint32, len(o.ScanOrder))
		for i, v := range o.ScanOrder {
			spec.ScanOrder[i] = uint32(v)
		}
	}
	knobs := codec.WireKnobs{
		NoiseIntermittent: o.Noise.Intermittent,
		NoiseFlip:         o.Noise.Flip,
		NoiseAbort:        o.Noise.Abort,
		NoiseSeed:         o.Noise.Seed,
		MaxRetries:        uint32(o.Retry.MaxRetries),
		VoteThreshold:     uint32(o.VoteThreshold),
	}
	return spec, knobs, nil
}

func optionsFromWire(spec codec.WireSpec, knobs codec.WireKnobs) (core.Options, error) {
	sch, err := schemeFromWire(spec.Scheme)
	if err != nil {
		return core.Options{}, err
	}
	o := core.Options{
		Scheme:     sch,
		Groups:     int(spec.Groups),
		Partitions: int(spec.Partitions),
		Patterns:   int(spec.Patterns),
		PRPGSeed:   spec.PRPGSeed,
		PRPGPoly:   lfsr.Poly(spec.PRPGPoly),
		MISRPoly:   lfsr.Poly(spec.MISRPoly),
		Ideal:      spec.Ideal,
		Chains:     int(spec.Chains),
		Noise: noise.Model{
			Intermittent: knobs.NoiseIntermittent,
			Flip:         knobs.NoiseFlip,
			Abort:        knobs.NoiseAbort,
			Seed:         knobs.NoiseSeed,
		},
		Retry:         bist.RetryPolicy{MaxRetries: int(knobs.MaxRetries)},
		VoteThreshold: int(knobs.VoteThreshold),
	}
	if len(spec.ScanOrder) > 0 {
		o.ScanOrder = make([]int, len(spec.ScanOrder))
		for i, v := range spec.ScanOrder {
			o.ScanOrder[i] = int(v)
		}
	}
	return o, nil
}

func faultsToWire(faults []sim.Fault) []codec.WireFault {
	out := make([]codec.WireFault, len(faults))
	for i, f := range faults {
		out[i] = codec.WireFault{Net: int32(f.Net), Gate: int32(f.Gate), Pin: int32(f.Pin), Stuck: f.Stuck}
	}
	return out
}

func faultsFromWire(faults []codec.WireFault) []sim.Fault {
	out := make([]sim.Fault, len(faults))
	for i, f := range faults {
		out[i] = sim.Fault{Net: circuit.NetID(f.Net), Gate: circuit.NetID(f.Gate), Pin: int(f.Pin), Stuck: f.Stuck}
	}
	return out
}

// setElems renders a bitset as its sorted element list; nil-safe.
func setElems(s *bitset.Set) []uint32 {
	if s == nil {
		return nil
	}
	elems := s.Elems()
	if len(elems) == 0 {
		return nil
	}
	out := make([]uint32, len(elems))
	for i, e := range elems {
		out[i] = uint32(e)
	}
	return out
}

// setFromElems rebuilds a bitset from a sorted element list. The wire
// cannot distinguish a nil set from an empty one; merge sites that need
// the distinction (Result nil iff undetected) reconstruct it from the
// Detected flag instead.
func setFromElems(elems []uint32) *bitset.Set {
	ints := make([]int, len(elems))
	for i, e := range elems {
		ints[i] = int(e)
	}
	return bitset.FromSlice(ints)
}

func countsToWire(counts []int) []uint32 {
	if len(counts) == 0 {
		return nil
	}
	out := make([]uint32, len(counts))
	for i, c := range counts {
		out[i] = uint32(c)
	}
	return out
}

// diagnosisToWire flattens one per-fault outcome into its verdict delta.
// The fault identity itself does not travel back: the coordinator keys
// the delta by global index into the fault list it dispatched.
func diagnosisToWire(index uint32, fd *core.FaultDiagnosis) codec.WireDiagnosis {
	d := codec.WireDiagnosis{
		Index:     index,
		Detected:  fd.Detected,
		Actual:    setElems(fd.Actual),
		Observed:  uint32(fd.Completeness.Observed),
		Scheduled: uint32(fd.Completeness.Scheduled),
	}
	if fd.Result != nil {
		d.Candidates = setElems(fd.Result.Candidates)
		d.Pruned = setElems(fd.Result.Pruned)
		d.Confirmed = setElems(fd.Result.Confirmed)
	}
	d.ByPartition = countsToWire(fd.CandidatesByPartition)
	if fd.Baseline != nil || fd.Reliability != nil {
		d.HasNoise = true
		if fd.Baseline != nil {
			d.BaselineCandidates = setElems(fd.Baseline.Candidates)
			d.BaselinePruned = setElems(fd.Baseline.Pruned)
			d.BaselineConfirmed = setElems(fd.Baseline.Confirmed)
		}
		if r := fd.Reliability; r != nil {
			d.Reliability = [6]uint64{
				uint64(r.Sessions), uint64(r.Executions), uint64(r.Aborted),
				uint64(r.Completed), uint64(r.Unknown), uint64(r.Disagreed),
			}
		}
	}
	return d
}

// diagnosisFromWire reconstructs the FaultDiagnosis a local sweep would
// have produced for fault f. The coordinator supplies f from its global
// fault list; the delta supplies everything else.
func diagnosisFromWire(f sim.Fault, d *codec.WireDiagnosis) *core.FaultDiagnosis {
	fd := &core.FaultDiagnosis{
		Fault:    f,
		Actual:   setFromElems(d.Actual),
		Detected: d.Detected,
		Completeness: diagnosis.Completeness{
			Observed:  int(d.Observed),
			Scheduled: int(d.Scheduled),
		},
	}
	if d.Detected {
		fd.Result = &diagnosis.Result{
			Candidates: setFromElems(d.Candidates),
			Pruned:     setFromElems(d.Pruned),
			Confirmed:  setFromElems(d.Confirmed),
		}
		fd.CandidatesByPartition = make([]int, len(d.ByPartition))
		for i, c := range d.ByPartition {
			fd.CandidatesByPartition[i] = int(c)
		}
	}
	if d.HasNoise {
		fd.Baseline = &diagnosis.Result{
			Candidates: setFromElems(d.BaselineCandidates),
			Pruned:     setFromElems(d.BaselinePruned),
			Confirmed:  setFromElems(d.BaselineConfirmed),
		}
		fd.Reliability = &bist.Reliability{
			Sessions: int(d.Reliability[0]), Executions: int(d.Reliability[1]),
			Aborted: int(d.Reliability[2]), Completed: int(d.Reliability[3]),
			Unknown: int(d.Reliability[4]), Disagreed: int(d.Reliability[5]),
		}
	}
	return fd
}

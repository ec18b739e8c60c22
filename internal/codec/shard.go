package codec

import (
	"fmt"
	"math"
)

// Shard-protocol messages: the coordinator/worker wire vocabulary of
// internal/shard. Every message reuses the artifact envelope (versioned
// kind + sha256 trailer) so a frame is either bit-perfect or rejected.
//
// The messages are deliberately plain data — integer kinds, element
// lists, no runtime types — and carry *references*, not artifacts: a
// device travels as a generation recipe plus its expected content
// fingerprint, a fault set as explicit sites plus its content hash, and
// verdicts as per-fault deltas (sorted cell-index lists). Workers
// rebuild everything heavy through their own artifact cache; the
// conversion to and from runtime objects lives in internal/shard.

// Device reference kinds: how a worker obtains the device under test.
const (
	// DeviceProfile names a benchgen profile (Name), with an optional
	// seed override and scale factor.
	DeviceProfile uint8 = 1
	// DeviceBenchFile names a .bench netlist by path, resolvable on the
	// worker's filesystem (shared, like the artifact -cachedir).
	DeviceBenchFile uint8 = 2
	// DeviceSOC names a built-in SOC preset ("soc1", "soc2", "soc1m").
	DeviceSOC uint8 = 3
)

// DeviceRef is the compact recipe for the device under test plus the
// content fingerprint the rebuilt device must hash to. The fingerprint
// (pipeline.CircuitFingerprint / SOCFingerprint) is the authority: a
// worker whose rebuild fingerprints differently refuses the job rather
// than diagnose a different netlist.
type DeviceRef struct {
	Kind        uint8
	Name        string // profile name, file path, or SOC preset name
	Seed        int64  // DeviceProfile: generator seed override (0 = profile default)
	Scale       uint32 // DeviceProfile: profile scale factor (0 or 1 = stock)
	Fingerprint string // expected content fingerprint (sha256 hex)
}

// Partition-scheme kinds mirrored from internal/partition.
const (
	SchemeTwoStep  uint8 = 1
	SchemeRandom   uint8 = 2
	SchemeInterval uint8 = 3
	SchemeFixed    uint8 = 4
)

// WireScheme flattens the four partition.Scheme implementations into one
// record; fields irrelevant to the kind are zero. Interval seeds are the
// only variable-length piece.
type WireScheme struct {
	Kind uint8
	// TwoStep: number of leading interval partitions.
	TwoStepIntervalPartitions uint32
	// Interval (and TwoStep's interval step).
	IntervalPoly    uint64
	IntervalLenBits uint32
	IntervalSeeds   []uint64
	// RandomSelection (and TwoStep's random step).
	RandomPoly uint64
	RandomSeed uint64
}

// WireSpec mirrors the artifact-shaping slice of core.Options — exactly
// the fields pipeline.Spec keys artifacts by, so a job pins its workers
// to one content key.
type WireSpec struct {
	Scheme     WireScheme
	Groups     uint32
	Partitions uint32
	Patterns   uint32
	PRPGSeed   uint64
	PRPGPoly   uint64
	MISRPoly   uint64
	Ideal      bool
	Chains     uint32
	ScanOrder  []uint32 // empty = natural order
}

// WireKnobs carries the runtime knobs that shape verdicts but not
// artifacts: the tester-noise model, the retry/vote policy, and the
// batch lane cap.
type WireKnobs struct {
	NoiseIntermittent float64
	NoiseFlip         float64
	NoiseAbort        float64
	NoiseSeed         uint64
	MaxRetries        uint32
	VoteThreshold     uint32
}

// JobKind selects which diagnosis flow a shard worker runs. It is a
// named type so switches over it are checked for exhaustiveness (the
// framecase analyzer): adding a kind without teaching every dispatch
// site is a compile-time-silent, analyzer-loud mistake.
type JobKind uint8

// Shard job kinds: which diagnosis flow the worker runs.
const (
	// JobCircuit diagnoses stuck-at faults on a full-scan circuit.
	JobCircuit JobKind = 1
	// JobSOCCore diagnoses stuck-at faults in one core of an SOC through
	// its meta chains.
	JobSOCCore JobKind = 2
	// JobChain injects shift-path faults (position i/2, stuck i%2 per
	// index) and reports location accuracy.
	JobChain JobKind = 3
)

// WireFault is sim.Fault on the wire.
type WireFault struct {
	Net, Gate, Pin int32
	Stuck          uint8
}

// ShardJob is one shard descriptor: everything a worker needs to rebuild
// the bench from content-addressed parts and diagnose its slice of the
// fault universe. Indices maps each fault to its position in the
// coordinator's global fault list, so deltas merge back slot-major.
type ShardJob struct {
	ID     uint64
	Kind   JobKind
	Device DeviceRef
	Core   int32 // JobSOCCore: core index; -1 otherwise
	Spec   WireSpec
	Knobs  WireKnobs
	// FaultHash is the content hash of Faults (pipeline.FaultSetHash);
	// the worker recomputes it over the decoded payload and refuses a
	// mismatch.
	FaultHash string
	Faults    []WireFault // JobCircuit, JobSOCCore
	Indices   []uint32    // global indices; JobChain uses these alone
}

// WireDiagnosis is one per-fault verdict delta: the FaultDiagnosis
// fields as sorted cell-index lists. Actual is present even for
// undetected faults (ground truth is always simulated); the candidate
// sets and per-partition counts only when Detected.
type WireDiagnosis struct {
	Index      uint32
	Detected   bool
	Actual     []uint32
	Candidates []uint32
	Pruned     []uint32
	Confirmed  []uint32
	// ByPartition[k-1] is the candidate count after k partitions.
	ByPartition []uint32
	// Observed/Scheduled is the partition-level completeness stamp.
	Observed  uint32
	Scheduled uint32
	// Noisy-tester extras; present only when HasNoise.
	HasNoise           bool
	BaselineCandidates []uint32
	BaselinePruned     []uint32
	BaselineConfirmed  []uint32
	// Reliability counters: sessions, executions, aborted, completed,
	// unknown, disagreed.
	Reliability [6]uint64
}

// WireChainOutcome is one shift-path injection's accuracy record.
type WireChainOutcome struct {
	Index   uint32
	Located bool
	Exact   bool
	Cands   uint32
}

// ShardResult is a worker's complete answer for one job.
type ShardResult struct {
	JobID     uint64
	Kind      JobKind
	Diagnoses []WireDiagnosis    // JobCircuit, JobSOCCore
	Chains    []WireChainOutcome // JobChain
}

// ShardError reports a failed job. Transient failures (cache races,
// resource exhaustion) invite a retry — possibly on another worker;
// permanent ones (fingerprint mismatch, invalid spec) fail the shard.
type ShardError struct {
	JobID     uint64
	Transient bool
	Msg       string
}

// ShardProgress is a worker's mid-job counter: Done of Total batches.
type ShardProgress struct {
	JobID uint64
	Done  uint32
	Total uint32
}

// ShardHello is the worker's greeting after accepting a connection; the
// envelope version doubles as the protocol-compatibility check.
type ShardHello struct {
	Node     string // worker's self-chosen name (host:pid by convention)
	Pid      uint32
	Workers  uint32 // worker-internal diagnosis goroutines
	CacheDir string // the artifact store the worker is attached to ("" = memory only)
}

// ---- encoders ----

func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) u32s(v []uint32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u32(x)
	}
}

func (w *writer) device(d DeviceRef) {
	w.u8(d.Kind)
	w.str(d.Name)
	w.u64(uint64(d.Seed))
	w.u32(d.Scale)
	w.str(d.Fingerprint)
}

func (w *writer) scheme(s WireScheme) {
	w.u8(s.Kind)
	w.u32(s.TwoStepIntervalPartitions)
	w.u64(s.IntervalPoly)
	w.u32(s.IntervalLenBits)
	w.u32(uint32(len(s.IntervalSeeds)))
	w.words(s.IntervalSeeds)
	w.u64(s.RandomPoly)
	w.u64(s.RandomSeed)
}

func (w *writer) spec(s WireSpec) {
	w.scheme(s.Scheme)
	w.u32(s.Groups)
	w.u32(s.Partitions)
	w.u32(s.Patterns)
	w.u64(s.PRPGSeed)
	w.u64(s.PRPGPoly)
	w.u64(s.MISRPoly)
	w.boolean(s.Ideal)
	w.u32(s.Chains)
	w.u32s(s.ScanOrder)
}

func (w *writer) knobs(k WireKnobs) {
	w.u64(math.Float64bits(k.NoiseIntermittent))
	w.u64(math.Float64bits(k.NoiseFlip))
	w.u64(math.Float64bits(k.NoiseAbort))
	w.u64(k.NoiseSeed)
	w.u32(k.MaxRetries)
	w.u32(k.VoteThreshold)
}

// EncodeShardHello seals a worker greeting.
func EncodeShardHello(h *ShardHello) []byte {
	var w writer
	w.str(h.Node)
	w.u32(h.Pid)
	w.u32(h.Workers)
	w.str(h.CacheDir)
	return seal(KindShardHello, VersionShardHello, w.b)
}

// EncodeShardJob seals a shard descriptor.
func EncodeShardJob(j *ShardJob) []byte {
	var w writer
	w.u64(j.ID)
	w.u8(uint8(j.Kind))
	w.device(j.Device)
	w.i32(j.Core)
	w.spec(j.Spec)
	w.knobs(j.Knobs)
	w.str(j.FaultHash)
	w.u32(uint32(len(j.Faults)))
	for _, f := range j.Faults {
		w.i32(f.Net)
		w.i32(f.Gate)
		w.i32(f.Pin)
		w.u8(f.Stuck)
	}
	w.u32s(j.Indices)
	return seal(KindShardJob, VersionShardJob, w.b)
}

// EncodeShardResult seals a worker's verdict deltas.
func EncodeShardResult(r *ShardResult) []byte {
	var w writer
	w.u64(r.JobID)
	w.u8(uint8(r.Kind))
	w.u32(uint32(len(r.Diagnoses)))
	for i := range r.Diagnoses {
		w.diagnosis(&r.Diagnoses[i])
	}
	w.u32(uint32(len(r.Chains)))
	for _, c := range r.Chains {
		w.u32(c.Index)
		w.boolean(c.Located)
		w.boolean(c.Exact)
		w.u32(c.Cands)
	}
	return seal(KindShardResult, VersionShardResult, w.b)
}

func (w *writer) diagnosis(d *WireDiagnosis) {
	w.u32(d.Index)
	w.boolean(d.Detected)
	w.u32s(d.Actual)
	w.u32s(d.Candidates)
	w.u32s(d.Pruned)
	w.u32s(d.Confirmed)
	w.u32s(d.ByPartition)
	w.u32(d.Observed)
	w.u32(d.Scheduled)
	w.boolean(d.HasNoise)
	if d.HasNoise {
		w.u32s(d.BaselineCandidates)
		w.u32s(d.BaselinePruned)
		w.u32s(d.BaselineConfirmed)
		for _, v := range d.Reliability {
			w.u64(v)
		}
	}
}

// EncodeShardError seals a job failure report.
func EncodeShardError(e *ShardError) []byte {
	var w writer
	w.u64(e.JobID)
	w.boolean(e.Transient)
	w.str(e.Msg)
	return seal(KindShardError, VersionShardError, w.b)
}

// EncodeShardProgress seals a progress counter.
func EncodeShardProgress(p *ShardProgress) []byte {
	var w writer
	w.u64(p.JobID)
	w.u32(p.Done)
	w.u32(p.Total)
	return seal(KindShardProgress, VersionShardProgress, w.b)
}

// ---- decoders ----

func (r *reader) boolean() bool { return r.u8() != 0 }

func (r *reader) u32s() []uint32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

// cells reads a sorted cell-index list, rejecting out-of-order or
// duplicate entries: the lists reconstruct bitsets, so order is not
// information — an unsorted list means a corrupt or adversarial frame.
func (r *reader) cells(what string) []uint32 {
	out := r.u32s()
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			r.fail("%s list not strictly increasing at %d", what, i)
			return nil
		}
	}
	return out
}

func (r *reader) device() DeviceRef {
	var d DeviceRef
	d.Kind = r.u8()
	d.Name = r.str()
	d.Seed = int64(r.u64())
	d.Scale = r.u32()
	d.Fingerprint = r.str()
	if d.Kind < DeviceProfile || d.Kind > DeviceSOC {
		r.fail("unknown device kind %d", d.Kind)
	}
	return d
}

func (r *reader) scheme() WireScheme {
	var s WireScheme
	s.Kind = r.u8()
	s.TwoStepIntervalPartitions = r.u32()
	s.IntervalPoly = r.u64()
	s.IntervalLenBits = r.u32()
	n := r.count(8)
	if n > 0 {
		s.IntervalSeeds = make([]uint64, n)
		for i := range s.IntervalSeeds {
			s.IntervalSeeds[i] = r.u64()
		}
	}
	s.RandomPoly = r.u64()
	s.RandomSeed = r.u64()
	if s.Kind < SchemeTwoStep || s.Kind > SchemeFixed {
		r.fail("unknown scheme kind %d", s.Kind)
	}
	return s
}

func (r *reader) spec() WireSpec {
	var s WireSpec
	s.Scheme = r.scheme()
	s.Groups = r.u32()
	s.Partitions = r.u32()
	s.Patterns = r.u32()
	s.PRPGSeed = r.u64()
	s.PRPGPoly = r.u64()
	s.MISRPoly = r.u64()
	s.Ideal = r.boolean()
	s.Chains = r.u32()
	s.ScanOrder = r.u32s()
	return s
}

func (r *reader) knobs() WireKnobs {
	var k WireKnobs
	k.NoiseIntermittent = math.Float64frombits(r.u64())
	k.NoiseFlip = math.Float64frombits(r.u64())
	k.NoiseAbort = math.Float64frombits(r.u64())
	k.NoiseSeed = r.u64()
	k.MaxRetries = r.u32()
	k.VoteThreshold = r.u32()
	return k
}

// DecodeShardHello opens and validates a worker greeting.
func DecodeShardHello(data []byte) (*ShardHello, error) {
	payload, err := open(data, KindShardHello, VersionShardHello)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	var h ShardHello
	h.Node = r.str()
	h.Pid = r.u32()
	h.Workers = r.u32()
	h.CacheDir = r.str()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("codec: shard hello: %w", err)
	}
	return &h, nil
}

// DecodeShardJob opens and validates a shard descriptor: job and device
// kinds must be known, and the index list must pair one-to-one with the
// job's fault slice (or stand alone for chain jobs).
func DecodeShardJob(data []byte) (*ShardJob, error) {
	payload, err := open(data, KindShardJob, VersionShardJob)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	var j ShardJob
	j.ID = r.u64()
	j.Kind = JobKind(r.u8())
	j.Device = r.device()
	j.Core = r.i32()
	j.Spec = r.spec()
	j.Knobs = r.knobs()
	j.FaultHash = r.str()
	if n := r.count(13); n > 0 {
		j.Faults = make([]WireFault, n)
		for i := range j.Faults {
			j.Faults[i] = WireFault{Net: r.i32(), Gate: r.i32(), Pin: r.i32(), Stuck: r.u8()}
		}
	}
	j.Indices = r.u32s()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("codec: shard job: %w", err)
	}
	switch j.Kind {
	case JobCircuit, JobSOCCore:
		if len(j.Indices) != len(j.Faults) {
			return nil, fmt.Errorf("codec: shard job: %d indices for %d faults", len(j.Indices), len(j.Faults))
		}
	case JobChain:
		if len(j.Faults) != 0 {
			return nil, fmt.Errorf("codec: shard job: chain job carries %d faults (wants none)", len(j.Faults))
		}
	default:
		return nil, fmt.Errorf("codec: shard job: unknown job kind %d", j.Kind)
	}
	if j.Kind == JobSOCCore && j.Core < 0 {
		return nil, fmt.Errorf("codec: shard job: SOC job with core %d", j.Core)
	}
	return &j, nil
}

// DecodeShardResult opens and validates a verdict-delta message.
func DecodeShardResult(data []byte) (*ShardResult, error) {
	payload, err := open(data, KindShardResult, VersionShardResult)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	var res ShardResult
	res.JobID = r.u64()
	res.Kind = JobKind(r.u8())
	if n := r.count(1); n > 0 {
		res.Diagnoses = make([]WireDiagnosis, n)
		for i := range res.Diagnoses {
			r.readDiagnosis(&res.Diagnoses[i])
		}
	}
	if n := r.count(10); n > 0 {
		res.Chains = make([]WireChainOutcome, n)
		for i := range res.Chains {
			res.Chains[i] = WireChainOutcome{
				Index: r.u32(), Located: r.boolean(), Exact: r.boolean(), Cands: r.u32(),
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("codec: shard result: %w", err)
	}
	if res.Kind < JobCircuit || res.Kind > JobChain {
		return nil, fmt.Errorf("codec: shard result: unknown job kind %d", res.Kind)
	}
	return &res, nil
}

func (r *reader) readDiagnosis(d *WireDiagnosis) {
	d.Index = r.u32()
	d.Detected = r.boolean()
	d.Actual = r.cells("actual")
	d.Candidates = r.cells("candidates")
	d.Pruned = r.cells("pruned")
	d.Confirmed = r.cells("confirmed")
	d.ByPartition = r.u32s()
	d.Observed = r.u32()
	d.Scheduled = r.u32()
	d.HasNoise = r.boolean()
	if d.HasNoise {
		d.BaselineCandidates = r.cells("baseline candidates")
		d.BaselinePruned = r.cells("baseline pruned")
		d.BaselineConfirmed = r.cells("baseline confirmed")
		for i := range d.Reliability {
			d.Reliability[i] = r.u64()
		}
	}
}

// DecodeShardError opens a job failure report.
func DecodeShardError(data []byte) (*ShardError, error) {
	payload, err := open(data, KindShardError, VersionShardError)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	var e ShardError
	e.JobID = r.u64()
	e.Transient = r.boolean()
	e.Msg = r.str()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("codec: shard error: %w", err)
	}
	return &e, nil
}

// DecodeShardProgress opens a progress counter.
func DecodeShardProgress(data []byte) (*ShardProgress, error) {
	payload, err := open(data, KindShardProgress, VersionShardProgress)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	var p ShardProgress
	p.JobID = r.u64()
	p.Done = r.u32()
	p.Total = r.u32()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("codec: shard progress: %w", err)
	}
	return &p, nil
}

// Package codec implements the deterministic binary wire format for the
// pipeline's persisted artifacts: the fault-free simulation layer,
// memoized fan-out cones, SOC segment maps with their per-core layers,
// and compiled batch plans.
//
// Every artifact is a self-contained envelope:
//
//	offset 0   magic "SBA1" (4 bytes)
//	offset 4   artifact kind (uint16, little-endian)
//	offset 6   format version (uint16, little-endian)
//	offset 8   payload length (uint64, little-endian)
//	offset 16  payload
//	trailer    sha256 over everything before it (32 bytes)
//
// Payloads are little-endian with length-prefixed lists and no
// self-describing structure: the format version is the schema. Encoding
// is deterministic — equal artifacts produce equal bytes, which is what
// lets the disk tier address them by content key — so encode paths must
// never iterate a map (enforced by the codecdet analyzer). Decoding
// validates everything: the sha256 rejects torn or corrupted bytes, and
// the per-artifact decoders bounds-check every index against the live
// circuit before reconstructing runtime objects, so a decode either
// returns an error or an artifact bit-for-bit equivalent to the one
// encoded.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Kind identifies the artifact type of an envelope.
type Kind uint16

const (
	// KindSimLayer is a fault-free simulation layer (per-block net values).
	KindSimLayer Kind = 1 + iota
	// KindCones is a snapshot of memoized fault-site cones.
	KindCones
	// KindSOCSimLayer is an SOC segment map with per-core sim layers.
	KindSOCSimLayer
	// KindBatchPlan is a compiled fault-parallel batch plan.
	KindBatchPlan
	// KindShardHello is a worker's greeting on a new shard connection.
	KindShardHello
	// KindShardJob is a coordinator's shard descriptor: device reference,
	// spec, runtime knobs, and the fault slice to diagnose.
	KindShardJob
	// KindShardResult is a worker's per-fault verdict deltas for one job.
	KindShardResult
	// KindShardError is a worker's failure report for one job.
	KindShardError
	// KindShardProgress is a worker's mid-job progress counter.
	KindShardProgress
)

// String names the kind for inspection tools.
func (k Kind) String() string {
	switch k {
	case KindSimLayer:
		return "sim-layer"
	case KindCones:
		return "cones"
	case KindSOCSimLayer:
		return "soc-sim-layer"
	case KindBatchPlan:
		return "batch-plan"
	case KindShardHello:
		return "shard-hello"
	case KindShardJob:
		return "shard-job"
	case KindShardResult:
		return "shard-result"
	case KindShardError:
		return "shard-error"
	case KindShardProgress:
		return "shard-progress"
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Current format versions, one schema per artifact kind. Bump a version
// whenever its payload layout changes; decoders reject other versions, so
// stale disk entries simply miss and rebuild.
const (
	VersionSimLayer    uint16 = 1
	VersionCones       uint16 = 1
	VersionSOCSimLayer uint16 = 1
	// VersionBatchPlan 2 (wide-word kernel): the payload gains the plan's
	// lane cap and per-batch plane assignments, and the record stream's
	// transition ops were replaced by masked per-plane force ops. Version-1
	// plans are rejected at the envelope and rebuilt.
	VersionBatchPlan uint16 = 2
	// Shard protocol messages: a coordinator and a worker whose revision
	// of a message differs refuse each other at its first frame.
	// VersionShardJob 2: the transition job kind and its fault-list count
	// left the payload, so a version-1 worker refuses a version-2 job
	// instead of misparsing it. VersionShardJob 3: the lane-cap knob left
	// the payload. VersionShardResult 2: the batch-schedule counters left
	// the payload.
	VersionShardHello    uint16 = 1
	VersionShardJob      uint16 = 3
	VersionShardResult   uint16 = 2
	VersionShardError    uint16 = 1
	VersionShardProgress uint16 = 1
)

const (
	headerSize = 16
	shaSize    = sha256.Size
)

var magic = [4]byte{'S', 'B', 'A', '1'}

// Header describes a sealed envelope.
type Header struct {
	Kind       Kind
	Version    uint16
	PayloadLen int
}

// seal wraps a payload in the envelope: header, payload, sha256 trailer.
func seal(kind Kind, version uint16, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload)+shaSize)
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[4:], uint16(kind))
	binary.LittleEndian.PutUint16(out[6:], version)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	copy(out[headerSize:], payload)
	sum := sha256.Sum256(out[:headerSize+len(payload)])
	copy(out[headerSize+len(payload):], sum[:])
	return out
}

// Inspect parses and integrity-checks an envelope without decoding the
// payload, returning its header. It accepts any kind and version whose
// envelope is intact, so inspection tools can describe artifacts written
// by other format revisions.
func Inspect(data []byte) (Header, error) {
	var h Header
	if len(data) < headerSize+shaSize {
		return h, fmt.Errorf("codec: %d bytes is shorter than an empty envelope", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return h, fmt.Errorf("codec: bad magic %q", data[:4])
	}
	h.Kind = Kind(binary.LittleEndian.Uint16(data[4:]))
	h.Version = binary.LittleEndian.Uint16(data[6:])
	n := binary.LittleEndian.Uint64(data[8:])
	if n != uint64(len(data)-headerSize-shaSize) {
		return h, fmt.Errorf("codec: header claims %d payload bytes, envelope holds %d", n, len(data)-headerSize-shaSize)
	}
	h.PayloadLen = int(n)
	body := data[:headerSize+h.PayloadLen]
	sum := sha256.Sum256(body)
	if [shaSize]byte(data[headerSize+h.PayloadLen:]) != sum {
		return h, fmt.Errorf("codec: sha256 mismatch (%s artifact corrupted)", h.Kind)
	}
	return h, nil
}

// open integrity-checks the envelope and returns the payload of an
// artifact of the wanted kind and version.
func open(data []byte, kind Kind, version uint16) ([]byte, error) {
	h, err := Inspect(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != kind {
		return nil, fmt.Errorf("codec: artifact is %s, want %s", h.Kind, kind)
	}
	if h.Version != version {
		return nil, fmt.Errorf("codec: %s artifact has version %d, want %d", kind, h.Version, version)
	}
	return data[headerSize : headerSize+h.PayloadLen], nil
}

// writer accumulates a payload. Appends never fail; the buffer grows as
// needed and is sealed once the payload is complete.
type writer struct {
	b []byte
}

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// words appends a word row without a length prefix; the row length is
// part of the schema (e.g. one word per net).
func (w *writer) words(v []uint64) {
	for _, x := range v {
		w.u64(x)
	}
}

// reader consumes a payload with a sticky error: after the first
// failure every read returns zero values, so decoders can parse
// straight-line and check err once per structure.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("payload truncated at offset %d (need %d of %d bytes)", r.off, n, len(r.b)-r.off)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *reader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (r *reader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *reader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) str() string {
	n := r.u32()
	if r.err == nil && uint64(n) > uint64(len(r.b)-r.off) {
		r.fail("string length %d exceeds remaining payload", n)
	}
	return string(r.take(int(n)))
}

// count reads a list length and validates it against the remaining
// payload at elemSize bytes per element, bounding allocations before they
// happen so corrupted lengths cannot balloon memory.
func (r *reader) count(elemSize int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(elemSize) > uint64(len(r.b)-r.off) {
		r.fail("list of %d×%d bytes exceeds remaining payload", n, elemSize)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// wordRow reads a fixed-length word row.
func (r *reader) wordRow(n int) []uint64 {
	raw := r.take(8 * n)
	if raw == nil {
		return nil
	}
	row := make([]uint64, n)
	for i := range row {
		row[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return row
}

// done reports the sticky error, or rejects trailing bytes the schema did
// not account for.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("codec: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

package codec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
)

func sampleShardJob() *codec.ShardJob {
	return &codec.ShardJob{
		ID:   7,
		Kind: codec.JobSOCCore,
		Device: codec.DeviceRef{
			Kind: codec.DeviceSOC, Name: "socmini", Fingerprint: "abc123",
		},
		Core: 2,
		Spec: codec.WireSpec{
			Scheme: codec.WireScheme{
				Kind:                      codec.SchemeTwoStep,
				TwoStepIntervalPartitions: 4,
				IntervalPoly:              0x1100b,
				IntervalLenBits:           9,
				IntervalSeeds:             []uint64{1, 2, 3},
				RandomPoly:                0x1100b,
				RandomSeed:                99,
			},
			Groups: 4, Partitions: 8, Patterns: 128,
			PRPGSeed: 0xACE1, PRPGPoly: 0x1100b, MISRPoly: 0x1100b,
			Ideal: true, Chains: 4,
			ScanOrder: []uint32{2, 0, 1},
		},
		Knobs: codec.WireKnobs{
			NoiseIntermittent: 0.25, NoiseFlip: 0.01, NoiseAbort: 0.005,
			NoiseSeed: 11, MaxRetries: 3, VoteThreshold: 2,
		},
		FaultHash: "deadbeef",
		Faults: []codec.WireFault{
			{Net: 4, Gate: -1, Pin: 0, Stuck: 1},
			{Net: 9, Gate: 3, Pin: 2, Stuck: 0},
		},
		Indices: []uint32{10, 42},
	}
}

// sampleChainJob is a shift-path injection shard: indices alone, no faults.
func sampleChainJob() *codec.ShardJob {
	return &codec.ShardJob{
		ID: 8, Kind: codec.JobChain,
		Device:  codec.DeviceRef{Kind: codec.DeviceProfile, Name: "s953", Scale: 1, Fingerprint: "ff"},
		Core:    -1,
		Spec:    codec.WireSpec{Scheme: codec.WireScheme{Kind: codec.SchemeFixed}, ScanOrder: []uint32{1, 0, 2}},
		Indices: []uint32{0, 3, 5},
	}
}

func sampleChainResult() *codec.ShardResult {
	return &codec.ShardResult{
		JobID: 9, Kind: codec.JobChain,
		Chains: []codec.WireChainOutcome{
			{Index: 0, Located: true, Exact: true, Cands: 1},
			{Index: 5, Located: false, Exact: false, Cands: 3},
		},
	}
}

func TestShardWireRoundTrip(t *testing.T) {
	hello := &codec.ShardHello{Node: "w0", Pid: 1234, Workers: 8, CacheDir: "/tmp/cache"}
	gotHello, err := codec.DecodeShardHello(codec.EncodeShardHello(hello))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hello, gotHello) {
		t.Fatalf("hello: %+v != %+v", gotHello, hello)
	}

	job := sampleShardJob()
	gotJob, err := codec.DecodeShardJob(codec.EncodeShardJob(job))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, gotJob) {
		t.Fatalf("job:\nwant %+v\ngot  %+v", job, gotJob)
	}

	cjob := sampleChainJob()
	gotC, err := codec.DecodeShardJob(codec.EncodeShardJob(cjob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cjob, gotC) {
		t.Fatalf("chain job:\nwant %+v\ngot  %+v", cjob, gotC)
	}

	res := &codec.ShardResult{
		JobID: 7, Kind: codec.JobSOCCore,
		Diagnoses: []codec.WireDiagnosis{
			{
				Index: 10, Detected: true,
				Actual: []uint32{1, 5}, Candidates: []uint32{1, 5, 9},
				Pruned: []uint32{1, 5}, Confirmed: []uint32{1},
				ByPartition: []uint32{12, 7, 3, 2}, Observed: 4, Scheduled: 4,
				HasNoise:           true,
				BaselineCandidates: []uint32{1, 5}, BaselinePruned: []uint32{1},
				BaselineConfirmed: nil,
				Reliability:       [6]uint64{2, 6, 1, 5, 1, 0},
			},
			{Index: 42, Detected: false, Observed: 4, Scheduled: 4},
		},
	}
	gotRes, err := codec.DecodeShardResult(codec.EncodeShardResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, gotRes) {
		t.Fatalf("result:\nwant %+v\ngot  %+v", res, gotRes)
	}

	cres := sampleChainResult()
	gotCR, err := codec.DecodeShardResult(codec.EncodeShardResult(cres))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cres, gotCR) {
		t.Fatalf("chain result:\nwant %+v\ngot  %+v", cres, gotCR)
	}

	se := &codec.ShardError{JobID: 7, Transient: true, Msg: "cache tier unavailable"}
	gotErr, err := codec.DecodeShardError(codec.EncodeShardError(se))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(se, gotErr) {
		t.Fatalf("error: %+v != %+v", gotErr, se)
	}

	pr := &codec.ShardProgress{JobID: 7, Done: 3, Total: 9}
	gotPr, err := codec.DecodeShardProgress(codec.EncodeShardProgress(pr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, gotPr) {
		t.Fatalf("progress: %+v != %+v", gotPr, pr)
	}
}

func TestShardJobValidation(t *testing.T) {
	bad := sampleShardJob()
	bad.Indices = bad.Indices[:1]
	if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
		t.Error("index/fault count mismatch accepted")
	}
	bad = sampleShardJob()
	bad.Core = -1
	if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
		t.Error("SOC job without a core accepted")
	}
	bad = sampleShardJob()
	bad.Kind = 99
	if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
		t.Error("unknown job kind accepted")
	}
	bad = sampleShardJob()
	bad.Kind = 4 // the retired transition kind
	if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
		t.Error("retired transition job kind accepted")
	}
	bad = sampleChainJob()
	bad.Faults = []codec.WireFault{{Net: 1}, {Net: 2}, {Net: 3}}
	if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
		t.Error("chain job carrying faults accepted")
	}
}

// TestShardJobVersion1Rejected: a job frame sealed at the first wire
// revision, whose payload still carried a transition-fault count, must
// fail the version check rather than be parsed under the new layout.
func TestShardJobVersion1Rejected(t *testing.T) {
	job := sampleShardJob()
	env := codec.EncodeShardJob(job)
	payload := env[16 : len(env)-sha256.Size]
	// The version-1 layout: the same fields with an empty transition
	// list between the stuck-at faults and the index list that closes
	// the payload.
	cut := len(payload) - 4 - 4*len(job.Indices)
	v1 := append([]byte(nil), payload[:cut]...)
	v1 = binary.LittleEndian.AppendUint32(v1, 0)
	v1 = append(v1, payload[cut:]...)
	_, err := codec.DecodeShardJob(reseal(t, env, 1, v1))
	if want := fmt.Sprintf("version 1, want %d", codec.VersionShardJob); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-1 job: err = %v, want the version error", err)
	}
}

// TestShardFramesPreviousVersionRejected: the job and result frames
// whose lane-cap knob and batch-schedule counters were removed must
// refuse a frame sealed at their previous revision instead of
// misparsing its payload.
func TestShardFramesPreviousVersionRejected(t *testing.T) {
	job := codec.EncodeShardJob(sampleShardJob())
	res := codec.EncodeShardResult(sampleChainResult())
	for _, tc := range []struct {
		name    string
		env     []byte
		version uint16
		decode  func([]byte) error
	}{
		{"job", job, codec.VersionShardJob, func(b []byte) error { _, err := codec.DecodeShardJob(b); return err }},
		{"result", res, codec.VersionShardResult, func(b []byte) error { _, err := codec.DecodeShardResult(b); return err }},
	} {
		prev := tc.version - 1
		err := tc.decode(reseal(t, tc.env, prev, tc.env[16:len(tc.env)-sha256.Size]))
		if want := fmt.Sprintf("version %d, want %d", prev, tc.version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s at version %d: err = %v, want the version error", tc.name, prev, err)
		}
	}
}

// reseal seals payload under env's header at another format version.
func reseal(t *testing.T, env []byte, version uint16, payload []byte) []byte {
	t.Helper()
	out := make([]byte, 0, 16+len(payload)+sha256.Size)
	out = append(out, env[:16]...)
	binary.LittleEndian.PutUint16(out[6:], version)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	out = append(out, sum[:]...)
	if _, err := codec.Inspect(out); err != nil {
		t.Fatalf("hand-sealed frame is not a valid envelope: %v", err)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	envs := [][]byte{
		codec.EncodeShardHello(&codec.ShardHello{Node: "a"}),
		codec.EncodeShardJob(sampleShardJob()),
		codec.EncodeShardProgress(&codec.ShardProgress{JobID: 1, Done: 1, Total: 2}),
	}
	for _, env := range envs {
		if err := codec.WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i, env := range envs {
		got, hdr, err := codec.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, env) {
			t.Fatalf("frame %d: bytes differ", i)
		}
		if hdr.PayloadLen != len(env)-32-16 {
			t.Fatalf("frame %d: header payload %d", i, hdr.PayloadLen)
		}
	}
	if _, _, err := codec.ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := codec.WriteFrame(&buf, codec.EncodeShardHello(&codec.ShardHello{Node: "a"})); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		r := bytes.NewReader(whole[:cut])
		if _, _, err := codec.ReadFrame(r); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(whole))
		} else if err == io.EOF {
			t.Fatalf("truncation at %d reported clean EOF", cut)
		}
	}
}

// FuzzShardFrame drives arbitrary byte streams at the frame reader and
// every shard-message decoder: whatever the bytes, the outcome is a
// clean error or a valid message — never a panic, never a hang.
func FuzzShardFrame(f *testing.F) {
	seed := func(env []byte) {
		var buf bytes.Buffer
		codec.WriteFrame(&buf, env)
		f.Add(buf.Bytes())
		// Corrupt one header byte and one payload byte.
		b := append([]byte(nil), buf.Bytes()...)
		b[4] ^= 0xFF
		f.Add(b)
		b = append([]byte(nil), buf.Bytes()...)
		b[len(b)/2] ^= 0x01
		f.Add(b)
		f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	}
	seed(codec.EncodeShardHello(&codec.ShardHello{Node: "w", Pid: 1, Workers: 2, CacheDir: "/c"}))
	seed(codec.EncodeShardJob(sampleShardJob()))
	seed(codec.EncodeShardResult(&codec.ShardResult{
		JobID: 1, Kind: codec.JobCircuit,
		Diagnoses: []codec.WireDiagnosis{{Index: 0, Detected: true, Actual: []uint32{1}, ByPartition: []uint32{1}, Observed: 1, Scheduled: 1}},
	}))
	seed(codec.EncodeShardError(&codec.ShardError{JobID: 1, Transient: true, Msg: "x"}))
	seed(codec.EncodeShardProgress(&codec.ShardProgress{JobID: 1, Done: 1, Total: 2}))
	seed(codec.EncodeShardJob(sampleChainJob()))
	seed(codec.EncodeShardResult(sampleChainResult()))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			env, hdr, err := codec.ReadFrame(r)
			if err != nil {
				return
			}
			switch hdr.Kind {
			case codec.KindShardHello:
				codec.DecodeShardHello(env)
			case codec.KindShardJob:
				codec.DecodeShardJob(env)
			case codec.KindShardResult:
				codec.DecodeShardResult(env)
			case codec.KindShardError:
				codec.DecodeShardError(env)
			case codec.KindShardProgress:
				codec.DecodeShardProgress(env)
			default:
				// Fuzzed frames can carry any kind; non-shard payloads
				// have their own decoders and are skipped here.
			}
		}
	})
}

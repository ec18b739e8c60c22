package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names the layer call a span covers. The traced run records one
// span per call into a layer's public function, made from this package.
type spanKind uint8

const (
	kOp spanKind = iota
	kGenerate
	kFaultList
	kPatterns
	kFaultFree
	kEngine
	kGolden
	kPlan
	kStoreWrite
	kStoreRead
	kEncode
	kDecode
	kLookup
	kSweep
	kJob
	kKernel
	kMaterialize
	kSOCKernel
	kSOCMaterialize
	kVerdicts
	kNoisyVerdicts
	kPrune
	kCounts
	numKinds
)

var kindNames = [numKinds]string{
	kOp:             "core.op",
	kGenerate:       "benchgen.generate",
	kFaultList:      "sim.fault_list",
	kPatterns:       "bist.patterns",
	kFaultFree:      "sim.fault_free",
	kEngine:         "bist.engine",
	kGolden:         "bist.golden",
	kPlan:           "sim.plan",
	kStoreWrite:     "pipeline.store_write",
	kStoreRead:      "pipeline.store_read",
	kEncode:         "codec.encode",
	kDecode:         "codec.decode",
	kLookup:         "pipeline.lookup",
	kSweep:          "pipeline.sweep",
	kJob:            "pipeline.job",
	kKernel:         "sim.kernel",
	kMaterialize:    "sim.materialize",
	kSOCKernel:      "soc.kernel",
	kSOCMaterialize: "soc.materialize",
	kVerdicts:       "bist.verdicts",
	kNoisyVerdicts:  "bist.noisy_verdicts",
	kPrune:          "diagnosis.prune",
	kCounts:         "diagnosis.counts",
}

// workerSide reports whether spans of this kind run on the executor's
// worker goroutines, where they are charged as busy time.
func (k spanKind) workerSide() bool {
	switch k {
	case kKernel, kMaterialize, kSOCKernel, kSOCMaterialize, kVerdicts, kNoisyVerdicts, kPrune, kCounts:
		return true
	}
	return false
}

// span is one recorded layer call. Spans of one operation share op; the
// parent is the enclosing span, on the operation's goroutine (gor 0) or,
// for a job, the sweep that started the worker.
type span struct {
	id, parent int32
	op         int32
	gor        int16
	kind       spanKind
	start, end int64 // nanoseconds since the recorder's epoch
}

// recorder keeps the spans of one goroutine in memory. It is not safe for
// concurrent use: each executor worker records into a child and the
// children are merged once the sweep has returned.
type recorder struct {
	epoch time.Time
	op    int32
	gor   int16
	spans []span
	open  []int32

	mu       sync.Mutex
	children []*recorder
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span of kind k under the innermost open span.
func (r *recorder) begin(k spanKind) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{id: id, parent: parent, op: r.op, gor: r.gor, kind: k, start: r.now()})
	r.open = append(r.open, id)
}

// end closes the innermost open span.
func (r *recorder) end() {
	n := len(r.open) - 1
	r.spans[r.open[n]].end = r.now()
	r.open = r.open[:n]
}

// child returns a recorder for one executor worker; its top-level spans
// get the currently open span as parent when merged. Safe to call from
// the worker goroutines while r itself is blocked in the sweep.
func (r *recorder) child() *recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &recorder{epoch: r.epoch, op: r.op, gor: int16(len(r.children) + 1)}
	r.children = append(r.children, c)
	return c
}

// merge appends the children's spans, renumbered, under the open span.
func (r *recorder) merge() {
	root := r.open[len(r.open)-1]
	for _, c := range r.children {
		base := int32(len(r.spans))
		for _, s := range c.spans {
			s.id += base
			if s.parent < 0 {
				s.parent = root
			} else {
				s.parent += base
			}
			r.spans = append(r.spans, s)
		}
	}
	r.children = r.children[:0]
}

// write dumps every span as one tab-separated line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id\tparent\top\tgoroutine\tspan\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.gor, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is the per-layer accounting of the traced operations.
//
// Spans on the operation goroutine are charged their self time (duration
// minus same-goroutine children). Spans on executor workers are charged
// their self time as busy time, summed over workers. The identity
//
//	opWall = Σ main self + study + (Σ worker self + idle + jobSelf) / workers
//
// holds exactly, where idle = workers × sweep wall − Σ job durations and
// jobSelf is job time outside any layer span: the unattributed remainder.
type breakdown struct {
	self      [numKinds]float64 // ms
	study     float64           // operation self time, ms
	opWall    float64
	sweepWall float64
	jobTotal  float64
	jobSelf   float64
	ops       int
}

func (b *breakdown) add(spans []span) {
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && spans[s.parent].gor == s.gor {
			childTime[s.parent] += s.end - s.start
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i, s := range spans {
		dur := s.end - s.start
		self := ms(dur - childTime[i])
		switch s.kind {
		case kOp:
			b.ops++
			b.opWall += ms(dur)
			b.study += self
		case kSweep:
			b.sweepWall += ms(dur)
		case kJob:
			b.jobTotal += ms(dur)
			b.jobSelf += self
		default:
			b.self[s.kind] += self
		}
	}
}

// idle is the executor's unused worker time, in worker-ms.
func (b *breakdown) idle(workers int) float64 {
	return float64(workers)*b.sweepWall - b.jobTotal
}

// unattributed is the share of operation wall time no layer span, the
// study self time or executor idle accounts for.
func (b *breakdown) unattributed(workers int) float64 {
	if b.opWall == 0 {
		return 0
	}
	return b.jobSelf / float64(workers) / b.opWall
}

// perOp returns a layer's charged time per operation in ms.
func (b *breakdown) perOp(k spanKind) float64 {
	if b.ops == 0 {
		return 0
	}
	return b.self[k] / float64(b.ops)
}

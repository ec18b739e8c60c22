package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneCounts is a job list with uneven lane counts, including an empty
// job and one far wider than the rest.
var laneCounts = []int{3, 0, 17, 1, 64, 5, 5, 2}

// TestLanesRunEveryLaneOnce: every head runs once and before its lanes,
// and every lane runs exactly once, for every worker count.
func TestLanesRunEveryLaneOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		heads := make([]atomic.Int32, len(laneCounts))
		lanes := make([][]atomic.Int32, len(laneCounts))
		for i, n := range laneCounts {
			lanes[i] = make([]atomic.Int32, n)
		}
		err := RunLanes(context.Background(), Executor{Workers: workers}, len(laneCounts), func() LaneJob[int] {
			return LaneJob[int]{
				Head: func(i int) (int, int, error) {
					heads[i].Add(1)
					return i, laneCounts[i], nil
				},
				Lane: func(h, i, k int) error {
					if h != i || heads[i].Load() != 1 {
						return fmt.Errorf("lane %d/%d ran with handle %d before its head", i, k, h)
					}
					lanes[i][k].Add(1)
					return nil
				},
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range laneCounts {
			if got := heads[i].Load(); got != 1 {
				t.Errorf("workers=%d: head %d ran %d times", workers, i, got)
			}
			for k := range lanes[i] {
				if got := lanes[i][k].Load(); got != 1 {
					t.Errorf("workers=%d: lane %d/%d ran %d times", workers, i, k, got)
				}
			}
		}
	}
}

// TestLanesHelpersShareSingleJob: with one job and several workers, the
// lanes of that job run on more than one worker — the owner blocks in
// its lanes until another worker has run one.
func TestLanesHelpersShareSingleJob(t *testing.T) {
	var ids atomic.Int32
	joined := make(chan struct{})
	var once sync.Once
	err := RunLanes(context.Background(), Executor{Workers: 4}, 1, func() LaneJob[int] {
		id := int(ids.Add(1))
		return LaneJob[int]{
			Head: func(int) (int, int, error) { return id, 32, nil },
			Lane: func(owner, _, _ int) error {
				if id != owner {
					once.Do(func() { close(joined) })
					return nil
				}
				select {
				case <-joined:
					return nil
				case <-time.After(10 * time.Second):
					return errors.New("no helper joined the job's lanes")
				}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// laneBuf is a worker-owned head output that lanes read.
type laneBuf struct{ job int }

// TestLanesOwnerKeepsHandleUntilHelpersFinish: an owner overwrites its
// handle only for its next job, and must never do so while a helper still
// reads the handle of its current one. Lanes yield to let a premature
// overwrite show; under -race it is also a reported race.
func TestLanesOwnerKeepsHandleUntilHelpersFinish(t *testing.T) {
	const jobs = 12
	for _, workers := range []int{2, 4} {
		err := RunLanes(context.Background(), Executor{Workers: workers}, jobs, func() LaneJob[*laneBuf] {
			own := &laneBuf{}
			return LaneJob[*laneBuf]{
				Head: func(i int) (*laneBuf, int, error) {
					own.job = i
					return own, 20 + i%3, nil
				},
				Lane: func(h *laneBuf, i, k int) error {
					runtime.Gosched()
					if h.job != i {
						return fmt.Errorf("lane %d/%d read a handle overwritten by job %d", i, k, h.job)
					}
					return nil
				},
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestCancelLanesStopMidJob: cancelling inside lane 10 of a job stops
// further lane claims — serially exactly lanes 0..10 run — and the run
// reports ctx's error.
func TestCancelLanesStopMidJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const lanes = 40
	var ran [lanes]atomic.Int32
	err := RunLanes(ctx, Executor{Workers: 1}, 3, func() LaneJob[int] {
		return LaneJob[int]{
			Head: func(i int) (int, int, error) { return i, lanes, nil },
			Lane: func(_, i, k int) error {
				if i != 0 {
					return fmt.Errorf("job %d claimed after cancellation", i)
				}
				ran[k].Add(1)
				if k == 10 {
					cancel()
				}
				return nil
			},
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for k := range ran {
		want := int32(0)
		if k <= 10 {
			want = 1
		}
		if got := ran[k].Load(); got != want {
			t.Errorf("lane %d ran %d times, want %d", k, got, want)
		}
	}
}

// TestCancelLanesLowestErrorWins: the failure of the lowest (job, lane)
// is reported for every worker count — a lane failure in job 0 beats a
// head failure in job 1 and a later lane failure in job 0, whichever
// happens first.
func TestCancelLanesLowestErrorWins(t *testing.T) {
	want := errors.New("job 0 lane 5")
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 20; rep++ {
			err := RunLanes(context.Background(), Executor{Workers: workers}, 3, func() LaneJob[int] {
				return LaneJob[int]{
					Head: func(i int) (int, int, error) {
						if i == 1 {
							return 0, 0, errors.New("job 1 head")
						}
						return i, 30, nil
					},
					Lane: func(_, i, k int) error {
						switch {
						case i == 0 && k == 5:
							runtime.Gosched()
							return want
						case i == 0 && k == 9:
							return errors.New("job 0 lane 9")
						}
						return nil
					},
				}
			})
			if !errors.Is(err, want) {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
			}
		}
	}
}

// TestCancelLanePanicReportsLane: a lane panic without a JobPanic
// annotation still names its job and lane in the *WorkerError.
func TestCancelLanePanicReportsLane(t *testing.T) {
	err := RunLanes(context.Background(), Executor{Workers: 1}, 2, func() LaneJob[int] {
		return LaneJob[int]{
			Head: func(i int) (int, int, error) { return i, 8, nil },
			Lane: func(_, i, k int) error {
				if i == 1 && k == 6 {
					panic("lane boom")
				}
				return nil
			},
		}
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v (%T), want *WorkerError", err, err)
	}
	if we.Job != 1 || we.Lane != 6 || we.Value != "lane boom" {
		t.Fatalf("WorkerError = %+v, want job 1 lane 6 / lane boom", we)
	}
}

package event_test

// The total-order property test: lifecycle events are published under the
// task store's one mutex, so every consumer must observe them in strictly
// increasing Seq across tasks, and each task's timeline as a legal state
// machine, no matter how many goroutines mutate different tasks
// concurrently.
// Run with -race: the tap below is the concurrency probe.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/matching"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// timelineChecker is a bus tap that validates per-task ordering as events
// arrive. Its own mutex stands in for whatever synchronization a real
// consumer uses; the ordering property must hold regardless.
type timelineChecker struct {
	mu      sync.Mutex
	last    uint64 // Seq of the last lifecycle event, any task
	lastSeq map[string]uint64
	state   map[string]event.Kind // last lifecycle kind per task
	errs    []string
}

func newTimelineChecker() *timelineChecker {
	return &timelineChecker{
		lastSeq: make(map[string]uint64),
		state:   make(map[string]event.Kind),
	}
}

func (tc *timelineChecker) failf(format string, args ...any) {
	tc.errs = append(tc.errs, fmt.Sprintf(format, args...))
}

// legal returns whether `next` may follow `prev` in one task's timeline.
func legal(prev, next event.Kind) bool {
	switch next {
	case event.KindSubmit:
		return prev == 0 // first event, exactly once
	case event.KindAssign:
		return prev == event.KindSubmit || prev == event.KindRevoke
	case event.KindRevoke:
		return prev == event.KindAssign
	case event.KindComplete:
		return prev == event.KindAssign
	case event.KindExpire:
		return prev == event.KindSubmit || prev == event.KindAssign || prev == event.KindRevoke
	case event.KindForget:
		return prev.Terminal() && prev != event.KindForget
	}
	return false
}

func (tc *timelineChecker) handle(ev event.Event) {
	if !ev.Kind.Lifecycle() {
		return
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// Across tasks too: the store publishes under its one lock, so the
	// order taps see is Seq order, which is the order the journal writes.
	if ev.Seq <= tc.last {
		tc.failf("seq %d (%v of %s) after %d: lifecycle events out of Seq order", ev.Seq, ev.Kind, ev.Task, tc.last)
	}
	tc.last = ev.Seq
	if last := tc.lastSeq[ev.Task]; ev.Seq <= last {
		tc.failf("task %s: seq %d after %d (%v)", ev.Task, ev.Seq, last, ev.Kind)
	}
	tc.lastSeq[ev.Task] = ev.Seq
	prev := tc.state[ev.Task]
	if !legal(prev, ev.Kind) {
		tc.failf("task %s: illegal transition %v→%v (seq %d)", ev.Task, prev, ev.Kind, ev.Seq)
	}
	tc.state[ev.Task] = ev.Kind
}

func TestPerTaskTotalOrderUnderConcurrency(t *testing.T) {
	const (
		workers      = 8
		tasksPerGoro = 40
		goroutines   = 6
	)
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	tc := newTimelineChecker()

	var eng *engine.Engine
	eng = engine.New(engine.Config{
		Clock:    clk,
		Matcher:  matching.Greedy{},
		Schedule: schedule.Config{BatchBound: 64, BatchPeriod: time.Second},
	}, engine.Hooks{})
	eng.Events().Tap(tc.handle)

	for w := 0; w < workers; w++ {
		if _, err := eng.AttachWorker(fmt.Sprintf("w%d", w), region.Point{Lat: 38, Lon: 23.7}); err != nil {
			t.Fatal(err)
		}
	}

	// Goroutines submit distinct task sets, run scheduling rounds, complete
	// what got assigned, and churn workers — all interleaved.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tasksPerGoro; i++ {
				id := fmt.Sprintf("g%d-t%d", g, i)
				err := eng.Submit(taskq.Task{
					ID:       id,
					Category: "photo",
					Location: region.Point{Lat: 38, Lon: 23.7},
					Deadline: clk.Now().Add(time.Hour),
					Reward:   1,
				})
				if err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				eng.Tick()
				// Complete whatever this task got; "not assigned / wrong
				// worker" errors are expected interleavings, not failures.
				if rec, ok := eng.Tasks().Get(id); ok && rec.Worker != "" {
					_, _ = eng.Complete(id, rec.Worker)
				}
				if i%16 == 7 {
					// Churn a worker: detach revokes its held task (if any),
					// exercising the Revoke path concurrently with batches.
					wid := fmt.Sprintf("w%d", (g+i)%workers)
					_ = eng.DetachWorker(wid)
					_, _ = eng.AttachWorker(wid, region.Point{Lat: 38, Lon: 23.7})
				}
			}
		}(g)
	}
	wg.Wait()

	// Drain the pipeline: keep batching+completing until nothing is held,
	// then expire the rest and garbage-collect every terminal record.
	for pass := 0; pass < 2*goroutines*tasksPerGoro; pass++ {
		eng.Tick()
		progressed := false
		for g := 0; g < goroutines; g++ {
			for i := 0; i < tasksPerGoro; i++ {
				id := fmt.Sprintf("g%d-t%d", g, i)
				if rec, ok := eng.Tasks().Get(id); ok && rec.Status == taskq.Assigned {
					if _, err := eng.Complete(id, rec.Worker); err == nil {
						progressed = true
					}
				}
			}
		}
		if !progressed {
			break
		}
	}
	clk.Advance(2 * time.Hour)
	eng.Tasks().ExpireDue()
	eng.Tasks().ForgetTerminatedBefore(clk.Now().Add(time.Hour))

	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, msg := range tc.errs {
		t.Error(msg)
	}
	total := goroutines * tasksPerGoro
	if len(tc.state) != total {
		t.Errorf("saw %d tasks, want %d", len(tc.state), total)
	}
	for id, last := range tc.state {
		if last != event.KindForget {
			t.Errorf("task %s ended on %v, want forget", id, last)
		}
	}
	if st := eng.Events().Stats(); st.Published == 0 {
		t.Error("no events published")
	}
}

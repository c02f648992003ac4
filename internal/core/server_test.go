package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"react/internal/engine"
	"react/internal/event"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

var athens = region.Point{Lat: 37.98, Lon: 23.73}

// fastOptions makes the loops hum in unit tests: short poll periods against
// the system clock.
func fastOptions() Options {
	return Options{
		MonitorPeriod: 20 * time.Millisecond,
		BatchPoll:     5 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
	}
}

func newTask(id string, deadline time.Duration) taskq.Task {
	return taskq.Task{
		ID:          id,
		Location:    athens,
		Deadline:    time.Now().Add(deadline),
		Reward:      0.05,
		Category:    "traffic",
		Description: "Is road A congested?",
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestAssignmentDeliveredToWorker(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()

	feed, err := s.RegisterWorker("alice", athens)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(newTask("t1", time.Minute)); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-feed:
		if a.TaskID != "t1" || a.WorkerID != "alice" || a.Category != "traffic" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("assignment never delivered")
	}

	// Complete and verify stats and result plumbing.
	res, err := s.Complete("t1", "alice", "yes, jammed")
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetDeadline || res.Answer != "yes, jammed" {
		t.Fatalf("result = %+v", res)
	}
	st := s.Stats()
	if st.Received != 1 || st.Assigned != 1 || st.Completed != 1 || st.OnTime != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompleteWrongWorkerRejected(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()
	feed, _ := s.RegisterWorker("alice", athens)
	s.RegisterWorker("mallory", athens)
	s.Submit(newTask("t1", time.Minute))
	<-feed
	if _, err := s.Complete("t1", "mallory", "fake"); !errors.Is(err, engine.ErrNotAssigned) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Complete("ghost", "alice", "x"); !errors.Is(err, taskq.ErrUnknownTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestFeedbackUpdatesAccuracy(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()
	feed, _ := s.RegisterWorker("alice", athens)
	s.Submit(newTask("t1", time.Minute))
	<-feed
	if err := s.Feedback("t1", true); err == nil {
		t.Fatal("feedback before completion accepted")
	}
	s.Complete("t1", "alice", "answer")
	if err := s.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Workers().Get("alice")
	if acc, ok := p.Accuracy("traffic"); !ok || acc != 1 {
		t.Fatalf("accuracy = %v, %v", acc, ok)
	}
}

func TestExpiryNotifiesRequester(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()
	// No workers registered: the task must expire unassigned.
	s.Submit(newTask("t1", 50*time.Millisecond))
	waitFor(t, 2*time.Second, func() bool { return s.Stats().Expired == 1 })
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeregisterReturnsHeldTask(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()
	feedA, _ := s.RegisterWorker("alice", athens)
	s.Submit(newTask("t1", time.Minute))
	<-feedA
	// Alice leaves mid-task; bob should inherit it.
	if err := s.DeregisterWorker("alice"); err != nil {
		t.Fatal(err)
	}
	feedB, _ := s.RegisterWorker("bob", athens)
	select {
	case a := <-feedB:
		if a.TaskID != "t1" {
			t.Fatalf("bob received %+v", a)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("task not reassigned after worker departure")
	}
	if _, ok := <-feedA; ok {
		t.Fatal("alice's feed not closed")
	}
}

func TestStopClosesFeeds(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	feed, _ := s.RegisterWorker("alice", athens)
	s.Stop()
	s.Stop() // idempotent
	if _, ok := <-feed; ok {
		t.Fatal("feed not closed on Stop")
	}
	if _, err := s.RegisterWorker("bob", athens); !errors.Is(err, ErrStopped) {
		t.Fatalf("register after stop err = %v", err)
	}
}

func TestSlowWorkerFeedRevoked(t *testing.T) {
	opts := fastOptions()
	opts.QueueDepth = 1
	s := New(opts)
	s.Start()
	defer s.Stop()
	s.RegisterWorker("sloth", athens) // never drains its feed
	s.Submit(newTask("t1", time.Minute))
	s.Submit(newTask("t2", time.Minute))
	s.Submit(newTask("t3", time.Minute))
	// One task sits in the depth-1 feed; the others must remain (or return
	// to) unassigned rather than vanish into a full channel.
	waitFor(t, 2*time.Second, func() bool {
		u, a, _, _ := s.Tasks().Counts()
		return a == 1 && u == 2
	})
}

func TestMonitorReassignsFromDelayedWorker(t *testing.T) {
	var reassigned atomic.Int32
	opts := fastOptions()
	// Monitor with tight threshold; worker history says tasks take ~50ms,
	// so holding one for >1s collapses Eq. 2.
	opts.Monitor = engine.Monitor{Threshold: 0.5, MinHistory: 3}
	s := New(opts)
	sub := s.Events().Subscribe(16, func(ev event.Event) bool {
		return ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseEq2
	})
	defer sub.Close()
	go func() {
		for range sub.C() {
			reassigned.Add(1)
		}
	}()
	s.Start()
	defer s.Stop()

	feed, _ := s.RegisterWorker("flake", athens)
	// Build history: three quick completions.
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("warm%d", i)
		s.Submit(newTask(id, time.Minute))
		a := <-feed
		time.Sleep(30 * time.Millisecond)
		if _, err := s.Complete(a.TaskID, "flake", "ok"); err != nil {
			t.Fatal(err)
		}
	}
	// Now stall: take the task and never finish. The monitor must revoke it.
	s.Submit(newTask("stalled", 10*time.Second))
	<-feed
	waitFor(t, 5*time.Second, func() bool { return reassigned.Load() >= 1 })
	if st := s.Stats(); st.Reassigned < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentSubmittersAndWorkers(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()

	const nWorkers, nTasks = 8, 120
	var completed atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		id := fmt.Sprintf("w%d", w)
		feed, err := s.RegisterWorker(id, athens)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string, feed <-chan Assignment) {
			defer wg.Done()
			for a := range feed {
				time.Sleep(time.Millisecond)
				if _, err := s.Complete(a.TaskID, id, "done"); err == nil {
					completed.Add(1)
					s.Feedback(a.TaskID, true)
				}
			}
		}(id, feed)
	}
	for i := 0; i < nTasks; i++ {
		if err := s.Submit(newTask(fmt.Sprintf("t%03d", i), time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return completed.Load() == nTasks })
	s.Stop()
	wg.Wait()
	st := s.Stats()
	if st.Completed != nTasks || st.OnTime != nTasks {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRegisterWorkerReattachesReturningWorker pins the one way to attach a
// worker: a returning id re-registers through the same call, keeps its
// learned history, takes its new location, and receives work on the new
// feed; only a second session while the feed is live is refused.
func TestRegisterWorkerReattachesReturningWorker(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()

	feed, err := s.RegisterWorker("alice", athens)
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(newTask("t1", time.Minute))
	a := <-feed
	if _, err := s.Complete(a.TaskID, "alice", "done"); err != nil {
		t.Fatal(err)
	}
	if err := s.DetachWorker("alice"); err != nil {
		t.Fatal(err)
	}
	if _, open := <-feed; open {
		t.Fatal("detach left the old feed open")
	}

	elsewhere := region.Point{Lat: 40.64, Lon: 22.94}
	feed, err = s.RegisterWorker("alice", elsewhere)
	if err != nil {
		t.Fatalf("returning worker refused: %v", err)
	}
	p, _ := s.Workers().Get("alice")
	if p.FitSamples() != 1 {
		t.Fatalf("history lost across re-register: %d exec-time samples, want 1", p.FitSamples())
	}
	if got := p.Location(); got != elsewhere {
		t.Fatalf("location after re-register = %v, want %v", got, elsewhere)
	}
	s.Submit(newTask("t2", time.Minute))
	select {
	case a := <-feed:
		if a.TaskID != "t2" {
			t.Fatalf("assignment on the new feed = %+v", a)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-registered worker never received an assignment")
	}

	_, err = s.RegisterWorker("alice", athens)
	if err == nil || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("second live session: err = %v, want \"already connected\"", err)
	}
}

func TestRetentionGarbageCollectsTerminalTasks(t *testing.T) {
	opts := fastOptions()
	opts.Retention = 50 * time.Millisecond
	s := New(opts)
	s.Start()
	defer s.Stop()
	feed, _ := s.RegisterWorker("alice", athens)
	s.Submit(newTask("t1", time.Minute))
	a := <-feed
	s.Complete(a.TaskID, "alice", "done")
	// After retention elapses the batch loop sweeps the record away.
	waitFor(t, 2*time.Second, func() bool {
		_, ok := s.Tasks().Get("t1")
		return !ok
	})
	// Stats are unaffected by the GC.
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoubleFeedbackRejected(t *testing.T) {
	s := New(fastOptions())
	s.Start()
	defer s.Stop()
	feed, _ := s.RegisterWorker("alice", athens)
	s.Submit(newTask("t1", time.Minute))
	a := <-feed
	s.Complete(a.TaskID, "alice", "ok")
	if err := s.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Feedback("t1", true); err == nil {
		t.Fatal("double feedback accepted")
	}
	p, _ := s.Workers().Get("alice")
	if p.Finished() != 1 {
		t.Fatalf("accuracy double-counted: finished = %d", p.Finished())
	}
}

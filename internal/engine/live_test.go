package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/schedule"
	"react/internal/taskq"
)

// fastConfig makes the live loop hum in unit tests: short poll periods
// against the system clock.
func fastConfig() Config {
	return Config{
		MonitorPeriod: 20 * time.Millisecond,
		BatchPoll:     5 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
	}
}

func liveTask(id string, deadline time.Duration) taskq.Task {
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

// feedHost is the smallest live host, the one the in-process examples
// use: a started engine whose Deliver hook sends each assignment on the
// worker's own channel, refusing when the worker has none or it is full.
// Like wire's route table, a worker's channel goes in before it attaches
// and comes out (closed) before it deregisters.
type feedHost struct {
	*Engine
	mu    sync.Mutex // guards feeds and the sends into them
	feeds map[string]chan taskq.Record
}

func newFeedHost(t *testing.T, cfg Config) *feedHost {
	t.Helper()
	h := &feedHost{feeds: map[string]chan taskq.Record{}}
	h.Engine = New(cfg, Hooks{Deliver: h.deliver})
	h.Start()
	t.Cleanup(h.Stop)
	return h
}

func (h *feedHost) deliver(rec taskq.Record) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.feeds[rec.Worker] <- rec:
		return true
	default:
		return false
	}
}

func (h *feedHost) register(t *testing.T, id string) <-chan taskq.Record {
	t.Helper()
	feed := make(chan taskq.Record, 1)
	h.mu.Lock()
	h.feeds[id] = feed
	h.mu.Unlock()
	if _, err := h.AttachWorker(id, athens); err != nil {
		t.Fatal(err)
	}
	return feed
}

// unroute closes and forgets a worker's feed.
func (h *feedHost) unroute(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if feed, ok := h.feeds[id]; ok {
		close(feed)
		delete(h.feeds, id)
	}
}

func (h *feedHost) deregister(id string) error {
	h.unroute(id)
	return h.DeregisterWorker(id)
}

// recv waits for one assignment on feed.
func recv(t *testing.T, feed <-chan taskq.Record) taskq.Record {
	t.Helper()
	select {
	case rec := <-feed:
		return rec
	case <-time.After(2 * time.Second):
		t.Fatal("assignment never delivered")
		return taskq.Record{}
	}
}

// TestStartStop pins the live loop's lifecycle: Start ticks, Stop waits
// for the loop and is idempotent, and no tick runs after it.
func TestStartStop(t *testing.T) {
	e := New(fastConfig(), Hooks{})
	e.Stop() // harmless on an engine never started
	e = New(fastConfig(), Hooks{})
	e.Start()
	if err := e.Submit(liveTask("t1", 20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return e.Stats().Expired == 1 })
	e.Stop()
	e.Stop() // idempotent
	if err := e.Submit(liveTask("t2", time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // ten poll periods
	if st := e.Stats(); st.Expired != 1 {
		t.Fatalf("a tick ran after Stop: stats = %+v", st)
	}
}

// TestStartLaunchesOneGoroutine pins the live engine's footprint: the
// poll tick, the Eq. 2 sweep and the kicked rounds share one loop, so
// Start adds exactly one goroutine and Stop takes it away.
func TestStartLaunchesOneGoroutine(t *testing.T) {
	e := New(fastConfig(), Hooks{})
	before := settledGoroutines()
	e.Start()
	if got := settledGoroutines(); got != before+1 {
		e.Stop()
		t.Fatalf("Start took goroutines %d -> %d, want one more", before, got)
	}
	e.Stop()
	if got := settledGoroutines(); got != before {
		t.Fatalf("after Stop goroutines = %d, want %d", got, before)
	}
}

// settledGoroutines counts goroutines once the count has held still for
// a few polls, so one that is just exiting is not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

func TestConfigLiveDefaults(t *testing.T) {
	cfg := Config{}.normalize()
	if cfg.BatchPoll != 200*time.Millisecond || cfg.MonitorPeriod != time.Second {
		t.Fatalf("live loop defaults = %v/%v, want 200ms/1s", cfg.BatchPoll, cfg.MonitorPeriod)
	}
}

func TestAssignmentDeliveredToWorker(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	feed := h.register(t, "alice")
	if err := h.Submit(liveTask("t1", time.Minute)); err != nil {
		t.Fatal(err)
	}
	rec := recv(t, feed)
	if rec.Task.ID != "t1" || rec.Worker != "alice" || rec.Task.Category != "traffic" {
		t.Fatalf("assignment = %+v", rec)
	}

	// Complete and verify stats and the final record.
	final, err := h.Complete("t1", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !final.MetDeadline() || final.Status != taskq.Completed {
		t.Fatalf("final = %+v", final)
	}
	st := h.Stats()
	if st.Received != 1 || st.Assigned != 1 || st.Completed != 1 || st.OnTime != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompleteWrongWorkerRejected(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	alice := h.register(t, "alice")
	mallory := h.register(t, "mallory")
	h.Submit(liveTask("t1", time.Minute))
	// Both are trainees, so the matcher's draw picks the holder; the other
	// one plays the impostor.
	var rec taskq.Record
	select {
	case rec = <-alice:
	case rec = <-mallory:
	case <-time.After(2 * time.Second):
		t.Fatal("assignment never delivered")
	}
	holder, impostor := rec.Worker, "mallory"
	if holder == "mallory" {
		impostor = "alice"
	}
	if rec.Task.ID != "t1" {
		t.Fatalf("assignment = %+v", rec)
	}
	if _, err := h.Complete("t1", impostor); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("err = %v", err)
	}
	if _, err := h.Complete("ghost", holder); !errors.Is(err, taskq.ErrUnknownTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestFeedbackUpdatesAccuracy(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	feed := h.register(t, "alice")
	h.Submit(liveTask("t1", time.Minute))
	recv(t, feed)
	if err := h.Feedback("t1", true); err == nil {
		t.Fatal("feedback before completion accepted")
	}
	h.Complete("t1", "alice")
	if err := h.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	p, _ := h.Workers().Get("alice")
	if acc, ok := p.Accuracy("traffic"); !ok || acc != 1 {
		t.Fatalf("accuracy = %v, %v", acc, ok)
	}
}

func TestExpiryNotifiesRequester(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	sub := h.Events().Subscribe(4, func(ev event.Event) bool { return ev.Kind == event.KindExpire })
	defer sub.Close()
	// No workers registered: the task must expire unassigned, and the
	// expiry reaches subscribers as a spine event.
	h.Submit(liveTask("t1", 50*time.Millisecond))
	select {
	case ev := <-sub.C():
		if ev.Task != "t1" {
			t.Fatalf("expiry event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("expiry never published")
	}
	if st := h.Stats(); st.Expired != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeregisterReturnsHeldTask(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	feedA := h.register(t, "alice")
	h.Submit(liveTask("t1", time.Minute))
	recv(t, feedA)
	// Alice leaves mid-task; bob should inherit it.
	if err := h.deregister("alice"); err != nil {
		t.Fatal(err)
	}
	feedB := h.register(t, "bob")
	if rec := recv(t, feedB); rec.Task.ID != "t1" {
		t.Fatalf("bob received %+v", rec)
	}
	if _, ok := <-feedA; ok {
		t.Fatal("alice's feed not closed")
	}
}

func TestMonitorReassignsFromDelayedWorker(t *testing.T) {
	var reassigned atomic.Int32
	cfg := fastConfig()
	// Monitor with tight threshold; worker history says tasks take ~50ms,
	// so holding one for >1s collapses Eq. 2.
	cfg.Monitor = Monitor{Threshold: 0.5}
	h := newFeedHost(t, cfg)
	sub := h.Events().Subscribe(16, func(ev event.Event) bool {
		return ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseEq2
	})
	defer sub.Close()
	go func() {
		for range sub.C() {
			reassigned.Add(1)
		}
	}()

	feed := h.register(t, "flake")
	// Build history: three quick completions.
	for i := 0; i < 3; i++ {
		h.Submit(liveTask(fmt.Sprintf("warm%d", i), time.Minute))
		rec := recv(t, feed)
		time.Sleep(30 * time.Millisecond)
		if _, err := h.Complete(rec.Task.ID, "flake"); err != nil {
			t.Fatal(err)
		}
	}
	// Now stall: take the task and never finish. The monitor must revoke it.
	h.Submit(liveTask("stalled", 10*time.Second))
	recv(t, feed)
	waitFor(t, 5*time.Second, func() bool { return reassigned.Load() >= 1 })
	if st := h.Stats(); st.Reassigned < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentSubmittersAndWorkers(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	const nWorkers, nTasks = 8, 120
	var completed atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		id := fmt.Sprintf("w%d", w)
		feed := h.register(t, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range feed {
				time.Sleep(time.Millisecond)
				if _, err := h.Complete(rec.Task.ID, id); err == nil {
					completed.Add(1)
					h.Feedback(rec.Task.ID, true)
				}
			}
		}()
	}
	for i := 0; i < nTasks; i++ {
		if err := h.Submit(liveTask(fmt.Sprintf("t%03d", i), time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return completed.Load() == nTasks })
	h.Stop()
	for w := 0; w < nWorkers; w++ {
		h.unroute(fmt.Sprintf("w%d", w))
	}
	wg.Wait()
	st := h.Stats()
	if st.Completed != nTasks || st.OnTime != nTasks {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetentionGarbageCollectsTerminalTasks(t *testing.T) {
	cfg := fastConfig()
	cfg.Retention = 50 * time.Millisecond
	h := newFeedHost(t, cfg)
	feed := h.register(t, "alice")
	h.Submit(liveTask("t1", time.Minute))
	rec := recv(t, feed)
	h.Complete(rec.Task.ID, "alice")
	// After retention elapses the live loop sweeps the record away.
	waitFor(t, 2*time.Second, func() bool {
		_, ok := h.Tasks().Get("t1")
		return !ok
	})
	// Stats are unaffected by the GC.
	if st := h.Stats(); st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoubleFeedbackRejected(t *testing.T) {
	h := newFeedHost(t, fastConfig())
	feed := h.register(t, "alice")
	h.Submit(liveTask("t1", time.Minute))
	rec := recv(t, feed)
	h.Complete(rec.Task.ID, "alice")
	if err := h.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	if err := h.Feedback("t1", true); err == nil {
		t.Fatal("double feedback accepted")
	}
	p, _ := h.Workers().Get("alice")
	if p.Finished() != 1 {
		t.Fatalf("accuracy double-counted: finished = %d", p.Finished())
	}
}

// TestTeardownInsideDeliveryRevokesOnce closes the detach-vs-round window:
// the host tears the worker down — unroute, then DetachWorker — after the
// round has bound and marked the worker busy but before its Deliver looks
// the route up. The detach releases the binding it finds, the delivery
// then finds no route and is refused, and that second release is a no-op:
// the task is back in the pool, the worker idle, and the spine carries
// exactly one revoke for the task.
func TestTeardownInsideDeliveryRevokesOnce(t *testing.T) {
	routes := map[string]bool{}
	var h *harness
	h = newHarness(t, Hooks{Deliver: func(rec taskq.Record) bool {
		delete(routes, rec.Worker)
		if err := h.eng.DetachWorker(rec.Worker); err != nil {
			t.Errorf("DetachWorker in Deliver: %v", err)
		}
		return routes[rec.Worker]
	}})
	var revokes []event.Event
	h.eng.Events().Tap(func(ev event.Event) {
		if ev.Kind == event.KindRevoke {
			revokes = append(revokes, ev)
		}
	})
	routes["w1"] = true
	mustAttach(t, h.eng, "w1")
	mustSubmit(t, h.eng, testTask("t1", h.clk))
	h.eng.tryBatch()
	h.flush()

	if rec, _ := h.eng.Tasks().Get("t1"); rec.Status != taskq.Unassigned || rec.Worker != "" {
		t.Fatalf("task after the teardown = %v held by %q, want back in the pool", rec.Status, rec.Worker)
	}
	p, _ := h.eng.Workers().Get("w1")
	if cur := p.CurrentTask(); cur != "" || p.Connected() {
		t.Fatalf("worker after the teardown: busy on %q, connected %v; want idle and detached", cur, p.Connected())
	}
	if len(revokes) != 1 || revokes[0].Task != "t1" || revokes[0].Cause != taskq.CauseDetach {
		t.Fatalf("revokes = %+v, want exactly one detach revoke of t1", revokes)
	}
}

// kickBound is the BatchBound of kickHost's engine.
const kickBound = 3

// kickHost starts an engine on a virtual clock whose ticker never fires
// within a test (BatchPoll is an hour), so only a kick can start a round.
// Every delivery lands on the returned channel.
func kickHost(t *testing.T) (*Engine, *clock.Virtual, <-chan taskq.Record) {
	t.Helper()
	clk := clock.NewVirtual(testEpoch)
	delivered := make(chan taskq.Record, 64) // more than any test delivers: Deliver never blocks a round
	e := New(Config{
		Clock:         clk,
		BatchPoll:     time.Hour,
		MonitorPeriod: time.Hour,
		Schedule:      schedule.Config{BatchBound: kickBound, BatchPeriod: time.Minute},
	}, Hooks{Deliver: func(rec taskq.Record) bool {
		delivered <- rec
		return true
	}})
	e.Start()
	t.Cleanup(e.Stop)
	return e, clk, delivered
}

// awaitDelivery returns the next delivery, failing the test if none comes
// within d.
func awaitDelivery(t *testing.T, delivered <-chan taskq.Record, d time.Duration, what string) taskq.Record {
	t.Helper()
	select {
	case rec := <-delivered:
		return rec
	case <-time.After(d):
		t.Fatalf("%s: nothing delivered within %v", what, d)
		return taskq.Record{}
	}
}

// refuseDelivery fails the test if anything is delivered within d.
func refuseDelivery(t *testing.T, delivered <-chan taskq.Record, d time.Duration, what string) {
	t.Helper()
	select {
	case rec := <-delivered:
		t.Fatalf("%s: %s delivered to %s", what, rec.Task.ID, rec.Worker)
	case <-time.After(d):
	}
}

// TestSubmitPastBatchBoundRunsRoundBeforePoll: the submit that takes the
// backlog past BatchBound starts a round at once (§IV.A's trigger), where
// a polled trigger would wait for the hour-long tick.
func TestSubmitPastBatchBoundRunsRoundBeforePoll(t *testing.T) {
	e, clk, delivered := kickHost(t)
	for w := 0; w <= kickBound; w++ {
		mustAttach(t, e, fmt.Sprintf("w%d", w))
	}
	for i := 0; i <= kickBound; i++ {
		mustSubmit(t, e, testTask(fmt.Sprintf("t%d", i), clk))
	}
	for i := 0; i <= kickBound; i++ {
		awaitDelivery(t, delivered, time.Second, fmt.Sprintf("task %d of %d", i+1, kickBound+1))
	}
}

// TestReleaseWithBacklogKicksRound: with every worker busy and the backlog
// above the bound, the completion that frees a worker starts the round
// that hands it the next task.
func TestReleaseWithBacklogKicksRound(t *testing.T) {
	e, clk, delivered := kickHost(t)
	mustAttach(t, e, "w")
	for i := 0; i < kickBound+2; i++ {
		mustSubmit(t, e, testTask(fmt.Sprintf("t%d", i), clk))
	}
	first := awaitDelivery(t, delivered, time.Second, "first round")
	refuseDelivery(t, delivered, 50*time.Millisecond, "the only worker is busy")
	if _, err := e.Complete(first.Task.ID, "w"); err != nil {
		t.Fatal(err)
	}
	if next := awaitDelivery(t, delivered, time.Second, "after the release"); next.Task.ID == first.Task.ID {
		t.Fatalf("completed task %s delivered again", next.Task.ID)
	}
}

// TestBacklogAtBoundWaitsForPeriod: a backlog of exactly BatchBound tasks
// is the period half's business. No kick — a submit, an attach, a
// completion — starts a round for it, nor does a tick before BatchPeriod
// has passed since the last round; the first tick after it does.
func TestBacklogAtBoundWaitsForPeriod(t *testing.T) {
	e, clk, delivered := kickHost(t)
	for w := 0; w <= kickBound; w++ {
		mustAttach(t, e, fmt.Sprintf("w%d", w))
	}
	// One kicked round first, so the period runs from now.
	for i := 0; i <= kickBound; i++ {
		mustSubmit(t, e, testTask(fmt.Sprintf("a%d", i), clk))
	}
	for i := 0; i <= kickBound; i++ {
		rec := awaitDelivery(t, delivered, time.Second, "the kicked round")
		if _, err := e.Complete(rec.Task.ID, rec.Worker); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < kickBound; i++ {
		task := testTask(fmt.Sprintf("b%d", i), clk)
		task.Deadline = clk.Now().Add(time.Hour) // outlives the period
		mustSubmit(t, e, task)
	}
	mustAttach(t, e, "late")
	refuseDelivery(t, delivered, 100*time.Millisecond, "backlog at the bound")
	clk.Advance(time.Minute - time.Nanosecond)
	e.Tick()
	refuseDelivery(t, delivered, 20*time.Millisecond, "a tick before the period")
	clk.Advance(time.Nanosecond)
	e.Tick()
	for i := 0; i < kickBound; i++ {
		awaitDelivery(t, delivered, time.Second, "the tick after the period")
	}
}

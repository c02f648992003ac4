package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/matching"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

var testEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func testTask(id string, clk clock.Clock) taskq.Task {
	return taskq.Task{
		ID:       id,
		Category: "photo",
		Location: region.Point{Lat: 38.0, Lon: 23.7},
		Deadline: clk.Now().Add(time.Minute),
		Reward:   1,
	}
}

// harness bundles an engine on a virtual clock with a captured Defer queue,
// so tests control exactly when a deferred batch — or, once Start has run,
// a tick or a kicked round — lands.
type harness struct {
	clk     *clock.Virtual
	eng     *Engine
	pending []deferred
}

// deferred is one captured Defer call.
type deferred struct {
	d  time.Duration
	fn func(now time.Time)
}

func newHarness(t *testing.T, hooks Hooks) *harness {
	t.Helper()
	h := &harness{clk: clock.NewVirtual(testEpoch)}
	h.eng = New(Config{
		Clock:    h.clk,
		Matcher:  matching.Greedy{},
		Schedule: schedule.Config{BatchBound: 10, BatchPeriod: time.Second},
		Defer: func(d time.Duration, fn func(now time.Time)) {
			h.pending = append(h.pending, deferred{d, fn})
		},
	}, hooks)
	return h
}

// fire runs the i-th captured Defer call and drops it from the queue.
func (h *harness) fire(i int) {
	fn := h.pending[i].fn
	h.pending = append(h.pending[:i:i], h.pending[i+1:]...)
	fn(h.clk.Now())
}

// delays lists the captured Defer calls' delays, in the order they came.
func (h *harness) delays() []time.Duration {
	out := make([]time.Duration, len(h.pending))
	for i, p := range h.pending {
		out[i] = p.d
	}
	return out
}

// flush lands every deferred batch application (and any cascaded rounds).
// It must not run on a started engine, whose ticks re-arm themselves.
func (h *harness) flush() {
	for len(h.pending) > 0 {
		h.fire(0)
	}
}

// fireInstant runs, oldest first, every captured call due at the current
// instant (delay 0) — the kicked rounds and uncharged applies — and
// reports how many ran. It stops at limit, so a round that re-arms itself
// forever fails the caller instead of hanging it.
func (h *harness) fireInstant(limit int) int {
	ran := 0
	for ran < limit {
		i := 0
		for i < len(h.pending) && h.pending[i].d != 0 {
			i++
		}
		if i == len(h.pending) {
			break
		}
		h.fire(i)
		ran++
	}
	return ran
}

// TestDetachDuringBatch drives a worker detach through every window of the
// batch pipeline and asserts the invariant the monitor relies on: the task
// always returns to the unassigned pool, and the worker is never left
// wedged busy on a task it no longer holds.
func TestDetachDuringBatch(t *testing.T) {
	cases := []struct {
		name string
		// run drives one scenario and returns the engine for the common
		// assertions below.
		run func(t *testing.T) *harness
	}{
		{
			// Detach lands while the batch waits out its modelled latency:
			// the apply must notice the snapshot is stale and skip.
			name: "during deferred latency window",
			run: func(t *testing.T) *harness {
				h := newHarness(t, Hooks{})
				mustAttach(t, h.eng, "w1")
				mustSubmit(t, h.eng, testTask("t1", h.clk))
				h.eng.TryBatch()
				if len(h.pending) != 1 {
					t.Fatalf("deferred applies = %d, want 1", len(h.pending))
				}
				if err := h.eng.DetachWorker("w1"); err != nil {
					t.Fatalf("DetachWorker: %v", err)
				}
				h.flush()
				return h
			},
		},
		{
			// Detach races delivery itself: the transport tears down the
			// feed mid-handoff and refuses the assignment, so the engine
			// must revoke a binding it just applied.
			name: "inside refused delivery",
			run: func(t *testing.T) *harness {
				var h *harness
				refused := false
				h = newHarness(t, Hooks{
					Deliver: func(rec taskq.Record) bool {
						if refused {
							return true // the reattached worker accepts normally
						}
						refused = true
						if err := h.eng.DetachWorker(rec.Worker); err != nil {
							t.Errorf("DetachWorker in Deliver: %v", err)
						}
						return false
					},
				})
				mustAttach(t, h.eng, "w1")
				mustSubmit(t, h.eng, testTask("t1", h.clk))
				h.eng.TryBatch()
				h.flush()
				return h
			},
		},
		{
			// Detach after a clean delivery: the held task must come back.
			name: "after delivery while executing",
			run: func(t *testing.T) *harness {
				h := newHarness(t, Hooks{})
				mustAttach(t, h.eng, "w1")
				mustSubmit(t, h.eng, testTask("t1", h.clk))
				h.eng.TryBatch()
				h.flush()
				if rec, _ := h.eng.Tasks().Get("t1"); rec.Status != taskq.Assigned {
					t.Fatalf("before detach: status = %v, want Assigned", rec.Status)
				}
				if err := h.eng.DetachWorker("w1"); err != nil {
					t.Fatalf("DetachWorker: %v", err)
				}
				return h
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.run(t)

			// Invariant 1: the task is back in the pool, not wedged.
			rec, ok := h.eng.Tasks().Get("t1")
			if !ok || rec.Status != taskq.Unassigned {
				t.Fatalf("after detach: status = %v (ok=%v), want Unassigned", rec.Status, ok)
			}
			// Invariant 2: the worker is offline, idle, and not busy.
			p, ok := h.eng.Workers().Get("w1")
			if !ok {
				t.Fatal("worker profile vanished on detach")
			}
			if p.Connected() {
				t.Error("worker still connected after detach")
			}
			if cur := p.CurrentTask(); cur != "" {
				t.Errorf("worker wedged busy on %q after detach", cur)
			}

			// Invariant 3: a reattached worker can pick the task up again.
			mustAttach(t, h.eng, "w1")
			h.clk.Advance(2 * time.Second) // let the period trigger re-arm
			h.eng.TryBatch()
			h.flush()
			rec, _ = h.eng.Tasks().Get("t1")
			if rec.Status != taskq.Assigned || rec.Worker != "w1" {
				t.Fatalf("after reattach: status = %v worker = %q, want Assigned/w1", rec.Status, rec.Worker)
			}
		})
	}
}

func mustAttach(t *testing.T, e *Engine, id string) {
	t.Helper()
	if _, err := e.AttachWorker(id, region.Point{Lat: 38.0, Lon: 23.7}); err != nil {
		t.Fatalf("AttachWorker(%s): %v", id, err)
	}
}

func mustSubmit(t *testing.T, e *Engine, task taskq.Task) {
	t.Helper()
	if err := e.Submit(task); err != nil {
		t.Fatalf("Submit(%s): %v", task.ID, err)
	}
}

// TestCompleteLifecycle walks submit → assign → complete → feedback and
// checks the counters and profile updates land.
func TestCompleteLifecycle(t *testing.T) {
	var delivered []taskq.Record
	h := newHarness(t, Hooks{
		Deliver: func(rec taskq.Record) bool { delivered = append(delivered, rec); return true },
	})
	mustAttach(t, h.eng, "w1")
	mustSubmit(t, h.eng, testTask("t1", h.clk))
	h.eng.TryBatch()
	h.flush()
	if len(delivered) != 1 || delivered[0].Task.ID != "t1" || delivered[0].Worker != "w1" {
		t.Fatalf("delivered = %+v, want one t1→w1", delivered)
	}

	h.clk.Advance(10 * time.Second)
	final, err := h.eng.Complete("t1", "w1")
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if !final.MetDeadline() || final.Worker != "w1" || final.Status != taskq.Completed {
		t.Fatalf("final = %+v, want completed on time by w1", final)
	}
	if got := final.ExecTime(); got != 10*time.Second {
		t.Fatalf("exec time = %v, want 10s", got)
	}
	if err := h.eng.Feedback("t1", true); err != nil {
		t.Fatalf("Feedback: %v", err)
	}
	p, _ := h.eng.Workers().Get("w1")
	if acc, ok := p.Accuracy("photo"); !ok || acc != 1 {
		t.Fatalf("accuracy = %v (ok=%v), want 1", acc, ok)
	}

	st := h.eng.Stats()
	if st.Received != 1 || st.Assigned != 1 || st.Completed != 1 || st.OnTime != 1 {
		t.Fatalf("stats = %+v, want 1/1/1/1", st)
	}

	// Completing twice, or as the wrong worker, is rejected.
	if _, err := h.eng.Complete("t1", "w1"); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("double complete: err = %v, want ErrNotAssigned", err)
	}
	// Grading twice is rejected too.
	if err := h.eng.Feedback("t1", true); err == nil {
		t.Fatal("double feedback accepted")
	}
}

// TestWorkerFactsArePublished pins the worker-level spine events — what
// the journal records and the profiles learn from: an attach (first or
// returning; a returning worker keeps its place unless it reports a valid
// new one), a grade, and a deregister that returns the held task.
func TestWorkerFactsArePublished(t *testing.T) {
	h := newHarness(t, Hooks{})
	var seen []event.Event
	h.eng.Events().Tap(func(ev event.Event) {
		if ev.Kind != event.KindBatch && (!ev.Kind.Lifecycle() || ev.Kind == event.KindRevoke) {
			seen = append(seen, ev)
		}
	})
	athens, nowhere := region.Point{Lat: 38.0, Lon: 23.7}, region.Point{Lat: 91}
	if _, err := h.eng.AttachWorker("w1", athens); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, h.eng, testTask("t1", h.clk))
	h.eng.TryBatch()
	h.flush()
	h.clk.Advance(10 * time.Second)
	if _, err := h.eng.Complete("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Feedback("t1", false); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.DetachWorker("w1"); err != nil {
		t.Fatal(err)
	}
	p, err := h.eng.AttachWorker("w1", nowhere)
	if err != nil || !p.Available() || p.Location() != athens || p.FitSamples() != 1 {
		t.Fatalf("returning w1: available=%v at %v with %d samples (err %v); want its history back in place",
			p.Available(), p.Location(), p.FitSamples(), err)
	}
	mustSubmit(t, h.eng, testTask("t2", h.clk))
	h.clk.Advance(2 * time.Second)
	h.eng.TryBatch()
	h.flush()
	if err := h.eng.DeregisterWorker("w1"); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, ev := range seen {
		got = append(got, fmt.Sprintf("%v %s %s", ev.Kind, ev.Task, ev.Worker))
	}
	want := []string{"attach  w1", "feedback t1 w1", "attach  w1", "revoke t2 w1", "deregister  w1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("worker facts %q, want %q", got, want)
	}
	if fb := seen[1]; fb.Positive || !fb.Record.Graded || fb.Record.Task.Category != "photo" {
		t.Fatalf("feedback event %+v, want a negative grade of the graded photo task", fb)
	}
	if seen[0].Loc != athens || seen[2].Loc != nowhere {
		t.Fatalf("attach locations %v, %v; want each as the worker reported it", seen[0].Loc, seen[2].Loc)
	}
	if rec, _ := h.eng.Tasks().Get("t2"); rec.Status != taskq.Unassigned {
		t.Fatalf("t2 after its worker deregistered: %v, want back in the pool", rec.Status)
	}
}

// TestLateCompleteAfterRebind: the Eq. 2 monitor revokes A's task and a
// round rebinds it to B. A stale release naming A (a detach that read A's
// task before the revoke) must not revoke B's binding — which would leave
// B busy with nothing to do — and A's late answer must not finish it —
// which would credit B's exec time to A and leave B busy on a terminal
// task — while B's own answer completes normally and frees B.
func TestLateCompleteAfterRebind(t *testing.T) {
	h := newHarness(t, Hooks{})
	mustAttach(t, h.eng, "A")
	mustSubmit(t, h.eng, testTask("t1", h.clk))
	h.eng.TryBatch()
	h.flush()
	a, _ := h.eng.Workers().Get("A")
	if a.CurrentTask() != "t1" {
		t.Fatalf("A holds %q, want t1", a.CurrentTask())
	}
	h.eng.release("t1", "A", taskq.CauseEq2, 0.05)
	a.SetAvailable(false) // keep the next round from handing t1 straight back
	mustAttach(t, h.eng, "B")
	h.clk.Advance(2 * time.Second)
	h.eng.TryBatch()
	h.flush()
	if rec, _ := h.eng.Tasks().Get("t1"); rec.Status != taskq.Assigned || rec.Worker != "B" {
		t.Fatalf("after rebind: %+v, want assigned to B", rec)
	}
	b, _ := h.eng.Workers().Get("B")

	h.eng.release("t1", "A", taskq.CauseDetach, 0)
	if rec, _ := h.eng.Tasks().Get("t1"); rec.Status != taskq.Assigned || rec.Worker != "B" {
		t.Fatalf("A's stale release moved the record: %+v", rec)
	}
	if b.CurrentTask() != "t1" {
		t.Fatalf("B holds %q after A's stale release, want t1", b.CurrentTask())
	}

	if _, err := h.eng.Complete("t1", "A"); !errors.Is(err, ErrNotAssigned) {
		t.Fatalf("late complete by A: err = %v, want ErrNotAssigned", err)
	}
	if b.CurrentTask() != "t1" {
		t.Fatalf("B holds %q after A's refused complete, want t1", b.CurrentTask())
	}
	if rec, _ := h.eng.Tasks().Get("t1"); rec.Status != taskq.Assigned || rec.Worker != "B" {
		t.Fatalf("A's refused complete moved the record: %+v", rec)
	}
	final, err := h.eng.Complete("t1", "B")
	if err != nil || final.Worker != "B" {
		t.Fatalf("Complete by B = %+v, %v", final, err)
	}
	if cur := b.CurrentTask(); cur != "" {
		t.Fatalf("B still busy on %q after completing", cur)
	}
}

// TestFeedbackNoWorker covers the satellite fix: feedback for a task nobody
// can be credited for must be rejected, not silently swallowed.
func TestFeedbackNoWorker(t *testing.T) {
	h := newHarness(t, Hooks{})

	// An expired-unassigned task has no worker at all.
	mustSubmit(t, h.eng, testTask("t-exp", h.clk))
	h.clk.Advance(2 * time.Minute)
	h.eng.TickExpiry()
	if err := h.eng.Feedback("t-exp", true); !errors.Is(err, ErrNoWorker) {
		t.Fatalf("expired task feedback: err = %v, want ErrNoWorker", err)
	}

	// A completed task whose worker deregistered has nobody to credit, and
	// the grade must not be consumed.
	mustAttach(t, h.eng, "w1")
	mustSubmit(t, h.eng, testTask("t-done", h.clk))
	h.eng.TryBatch()
	h.flush()
	if _, err := h.eng.Complete("t-done", "w1"); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := h.eng.DeregisterWorker("w1"); err != nil {
		t.Fatalf("DeregisterWorker: %v", err)
	}
	if err := h.eng.Feedback("t-done", true); !errors.Is(err, ErrNoWorker) {
		t.Fatalf("departed-worker feedback: err = %v, want ErrNoWorker", err)
	}
	if rec, _ := h.eng.Tasks().Get("t-done"); rec.Graded {
		t.Fatal("rejected feedback still consumed the grade")
	}
}

// TestTrigger walks the batch trigger's boundaries (§IV.A): never due with
// nothing unassigned; the first round due at once; afterwards due only when
// the backlog exceeds BatchBound or a full BatchPeriod has passed.
func TestTrigger(t *testing.T) {
	h := newHarness(t, Hooks{}) // BatchBound 10, BatchPeriod 1s
	for w := 0; w < 32; w++ {
		mustAttach(t, h.eng, fmt.Sprintf("w%02d", w))
	}
	submitted := 0
	steps := []struct {
		name    string
		advance time.Duration
		submit  int
		batches int64 // rounds run so far, after this step's TryBatch
	}{
		{"nothing unassigned never triggers", time.Hour, 0, 0},
		{"first round is due at once", 0, 1, 1},
		{"below the bound and before the period", 200 * time.Millisecond, 10, 1},
		{"backlog over the bound triggers immediately", 0, 1, 2},
		{"one nanosecond short of a period", time.Second - time.Nanosecond, 1, 2},
		{"a full period triggers even a small backlog", time.Nanosecond, 0, 3},
	}
	for _, st := range steps {
		h.clk.Advance(st.advance)
		for i := 0; i < st.submit; i++ {
			mustSubmit(t, h.eng, testTask(fmt.Sprintf("t%02d", submitted), h.clk))
			submitted++
		}
		h.eng.TryBatch()
		h.flush()
		if got := h.eng.Stats().Batches; got != st.batches {
			t.Fatalf("%s: batches = %d, want %d", st.name, got, st.batches)
		}
	}
}

// TestPrunedRoundDoesNotRetrigger: a deferred round in which Eq. 3 pruned
// every edge binds nothing and charges nothing. Its apply must not re-run
// the trigger: the backlog is still over the bound, so the re-check would
// plan the same empty round at the same instant, and a simulation's clock
// would never move again.
func TestPrunedRoundDoesNotRetrigger(t *testing.T) {
	h := newHarness(t, Hooks{}) // BatchBound 10
	p, err := h.eng.AttachWorker("slow", region.Point{Lat: 38.0, Lon: 23.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, secs := range []float64{600, 700, 650, 900, 800} { // k_min 10 min: no 1-minute deadline fits
		p.RecordCompletion("photo", secs, true)
	}
	h.eng.Start()
	defer h.eng.Stop()
	for i := 0; i < 11; i++ { // the 11th submit kicks
		mustSubmit(t, h.eng, testTask(fmt.Sprintf("t%02d", i), h.clk))
	}
	// The kicked round, then its apply: two calls at this instant, and
	// nothing after them.
	if ran := h.fireInstant(5); ran != 2 {
		t.Fatalf("%d calls ran at one instant, want the kicked round and its apply", ran)
	}
	if got := h.eng.Stats().Batches; got != 1 {
		t.Fatalf("batches = %d, want the one pruned round", got)
	}
	if n := h.eng.Tasks().UnassignedCount(); n != 11 {
		t.Fatalf("%d tasks unassigned, want all 11", n)
	}
}

// TestStartArmsTicksThroughDefer: with Config.Defer set, Start launches no
// goroutine; it arms Tick at BatchPoll and TickMonitor at MonitorPeriod on
// the host's clock, and each re-arms itself when it runs.
func TestStartArmsTicksThroughDefer(t *testing.T) {
	h := newHarness(t, Hooks{})
	if len(h.pending) != 0 {
		t.Fatalf("armed %v before Start", h.delays())
	}
	p, err := h.eng.AttachWorker("slow", region.Point{Lat: 38.0, Lon: 23.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, secs := range []float64{5, 7, 9, 6} { // typically 5-9 s
		p.RecordCompletion("photo", secs, true)
	}
	mustSubmit(t, h.eng, testTask("held", h.clk))
	h.eng.TryBatch()
	h.flush()
	mustSubmit(t, h.eng, testTask("waiting", h.clk))

	h.eng.Start()
	defer h.eng.Stop()
	poll, monitor := 200*time.Millisecond, time.Second // the Config defaults
	if got, want := fmt.Sprint(h.delays()), fmt.Sprint([]time.Duration{poll, monitor}); got != want {
		t.Fatalf("Start armed %s, want %s", got, want)
	}

	// Past its deadline, the 200 ms tick expires the waiting task.
	h.clk.Advance(2 * time.Minute)
	h.fire(0)
	if rec, _ := h.eng.Tasks().Get("waiting"); rec.Status != taskq.Expired {
		t.Fatalf("after the poll tick, waiting is %v, want expired", rec.Status)
	}
	if got, want := fmt.Sprint(h.delays()), fmt.Sprint([]time.Duration{monitor, poll}); got != want {
		t.Fatalf("after the poll tick armed %s, want %s", got, want)
	}

	// 30 s into a 60 s deadline, a 5-9 s worker has abandoned the task:
	// the 1 s tick is the Eq. 2 sweep.
	mustSubmit(t, h.eng, testTask("doomed", h.clk))
	if _, err := h.eng.Complete("held", "slow"); err != nil {
		t.Fatal(err)
	}
	h.fire(1) // the poll tick binds doomed
	h.fireInstant(1)
	h.clk.Advance(30 * time.Second)
	h.fire(0)
	if rec, _ := h.eng.Tasks().Get("doomed"); rec.Status != taskq.Unassigned || h.eng.Stats().Reassigned != 1 {
		t.Fatalf("after the monitor tick, doomed is %v (reassigned %d), want revoked by Eq. 2",
			rec.Status, h.eng.Stats().Reassigned)
	}
	if got, want := fmt.Sprint(h.delays()), fmt.Sprint([]time.Duration{poll, monitor}); got != want {
		t.Fatalf("after the monitor tick armed %s, want %s", got, want)
	}
}

// TestKicksAtOneInstantArmOneRound: kicks that land before the kicked round
// runs — here the first before Start, which arms it — coalesce in the
// one-slot wake channel into one Defer(0, …) round, and once that round has
// run, the next kick arms another.
func TestKicksAtOneInstantArmOneRound(t *testing.T) {
	h := newHarness(t, Hooks{}) // BatchBound 10: the 11th submit kicks
	for i := 0; i < 11; i++ {
		mustSubmit(t, h.eng, testTask(fmt.Sprintf("t%02d", i), h.clk))
	}
	if len(h.pending) != 0 {
		t.Fatalf("an engine not started armed %v", h.delays())
	}
	h.eng.Start()
	defer h.eng.Stop()
	if got := h.delays()[2:]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("Start armed %v after the two ticks, want the pending kick's round", got)
	}
	mustSubmit(t, h.eng, testTask("t11", h.clk))
	mustAttach(t, h.eng, "w1")
	if got := len(h.pending); got != 3 {
		t.Fatalf("%d calls armed, want still the two ticks and one round", got)
	}
	h.fireInstant(1)
	if got := h.eng.Stats().Batches; got != 1 {
		t.Fatalf("batches = %d, want the one kicked round", got)
	}
	h.fireInstant(1) // its apply binds one task; 11 still wait
	mustSubmit(t, h.eng, testTask("t12", h.clk))
	if ran := h.fireInstant(1); ran != 1 {
		t.Fatal("a kick after the round ran armed nothing")
	}
}

// TestNothingRearmsAfterStop: after Stop, an armed tick or kicked round
// that still lands does nothing and re-arms nothing, and kicks fill the
// wake slot unread, as on an engine never started.
func TestNothingRearmsAfterStop(t *testing.T) {
	h := newHarness(t, Hooks{})
	mustAttach(t, h.eng, "w1")
	h.eng.Start()
	for i := 0; i < 11; i++ {
		mustSubmit(t, h.eng, testTask(fmt.Sprintf("t%02d", i), h.clk))
	}
	h.eng.Stop()
	h.clk.Advance(time.Hour)
	for fired := 0; len(h.pending) > 0; fired++ {
		if fired == 10 {
			t.Fatalf("still arming %v after Stop", h.delays())
		}
		h.fire(0)
	}
	for i := 11; i < 22; i++ {
		mustSubmit(t, h.eng, testTask(fmt.Sprintf("t%02d", i), h.clk))
	}
	if len(h.pending) != 0 {
		t.Fatalf("armed %v after Stop", h.delays())
	}
	if got := h.eng.Stats(); got.Batches != 0 || got.Expired != 0 {
		t.Fatalf("stats after Stop = %+v, want no round and no expiry", got)
	}
}

// TestRunBatchEndToEnd runs one round over two seasoned workers of
// different quality and one task: Greedy must pick the better worker, REACT
// must deliver a valid assignment, and the round summary on the spine must
// carry the build and match figures.
func TestRunBatchEndToEnd(t *testing.T) {
	for _, m := range []matching.Matcher{
		matching.Greedy{},
		matching.REACT{Cycles: 200, Rand: rand.New(rand.NewSource(1))},
	} {
		clk := clock.NewVirtual(testEpoch)
		var delivered []taskq.Record
		eng := New(Config{Clock: clk, Matcher: m}, Hooks{
			Deliver: func(rec taskq.Record) bool { delivered = append(delivered, rec); return true },
		})
		var rounds []event.BatchStats
		eng.Events().Tap(func(ev event.Event) {
			if ev.Kind == event.KindBatch {
				rounds = append(rounds, *ev.Batch)
			}
		})
		for id, positives := range map[string]int{"good": 4, "poor": 1} { // quality 1.0 vs 0.25
			p, err := eng.AttachWorker(id, region.Point{Lat: 38.0, Lon: 23.7})
			if err != nil {
				t.Fatal(err)
			}
			for i, secs := range []float64{4, 5, 6, 5} {
				p.RecordCompletion("photo", secs, i < positives)
			}
		}
		task := testTask("t1", clk)
		task.Description = "tag the photo"
		mustSubmit(t, eng, task)
		eng.TryBatch()

		if len(delivered) != 1 || delivered[0].Task.ID != "t1" {
			t.Fatalf("%s delivered %+v, want exactly t1", m.Name(), delivered)
		}
		rec := delivered[0]
		if m.Name() == "greedy" && rec.Worker != "good" {
			t.Fatalf("greedy picked %q, want good", rec.Worker)
		}
		// Deliver gets the record the store bound: the bare task plus its
		// binding, exactly what a Get right after the round returns.
		task.Submitted = clk.Now()
		if rec.Task != task || rec.Status != taskq.Assigned || !rec.AssignedAt.Equal(clk.Now()) || rec.Attempts != 1 {
			t.Fatalf("%s delivered %+v, want task %+v bound now", m.Name(), rec, task)
		}
		if got, _ := eng.Tasks().Get("t1"); got != rec {
			t.Fatalf("%s delivered %+v, store holds %+v", m.Name(), rec, got)
		}
		if len(rounds) != 1 {
			t.Fatalf("%s published %d round summaries, want 1", m.Name(), len(rounds))
		}
		if r := rounds[0]; r.Workers != 2 || r.Tasks != 1 || r.Edges != 2 || r.Assignments != 1 || r.Elapsed < 0 {
			t.Fatalf("%s round = %+v", m.Name(), r)
		}
	}
}

// TestConcurrentPipeline hammers an engine from many goroutines so the
// race detector can vet the lock layout: submissions, completions,
// feedback, monitor sweeps, and batches all in flight together.
func TestConcurrentPipeline(t *testing.T) {
	clk := clock.NewVirtual(testEpoch)
	feeds := make(map[string]chan taskq.Record)
	var eng *Engine
	eng = New(Config{
		Clock:    clk,
		Matcher:  matching.Greedy{},
		Schedule: schedule.Config{BatchBound: 1, BatchPeriod: time.Millisecond},
	}, Hooks{
		Deliver: func(rec taskq.Record) bool {
			select {
			case feeds[rec.Worker] <- rec:
				return true
			default:
				return false
			}
		},
	})
	const workers = 8
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("w%d", w)
		feeds[id] = make(chan taskq.Record, 4)
		mustAttach(t, eng, id)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("w%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case rec := <-feeds[id]:
					if _, err := eng.Complete(rec.Task.ID, id); err == nil {
						// Concurrent grading may race task GC; losing one
						// grade is the test's point.
						eng.Feedback(rec.Task.ID, true)
					}
				}
			}
		}()
	}
	const total = 400
	for i := 0; i < total; i++ {
		mustSubmit(t, eng, taskq.Task{
			ID:       fmt.Sprintf("task%04d", i),
			Deadline: clk.Now().Add(time.Hour),
			Reward:   1,
		})
		eng.TryBatch()
		if i%16 == 0 {
			eng.TickMonitor()
			eng.TickExpiry()
		}
	}
	// Drain: batches keep running until everything terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, completed, expired := eng.Tasks().Counts()
		if completed+expired == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: %d terminal of %d", completed+expired, total)
		}
		clk.Advance(time.Millisecond) // re-arm the period trigger for refused re-deliveries
		eng.TryBatch()
	}
	close(done)
	wg.Wait()
	st := eng.Stats()
	if st.Received != total || st.Completed+st.Expired != total {
		t.Fatalf("stats = %+v, want %d received and terminal", st, total)
	}
}

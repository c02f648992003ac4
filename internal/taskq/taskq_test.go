// The tests of this package drive engine.TaskStore, the registry that
// keeps taskq's records, through the vocabulary defined here.
package taskq_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/region"
	. "react/internal/taskq"
)

// newTestManager returns a bare store on a virtual clock.
func newTestManager() (*engine.TaskStore, *clock.Virtual) {
	clk := clock.NewVirtual(clock.Epoch)
	return engine.NewTaskStore(clk, 1), clk
}

func testTask(id string, deadline time.Duration) Task {
	return Task{
		ID:          id,
		Location:    region.Point{Lat: 37.98, Lon: 23.73},
		Deadline:    clock.Epoch.Add(deadline),
		Reward:      0.05,
		Category:    "traffic",
		Description: "Is road A congested?",
	}
}

func TestSubmitAndCounts(t *testing.T) {
	m, _ := newTestManager()
	if err := m.Submit(testTask("t1", 90*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(testTask("t2", 60*time.Second)); err != nil {
		t.Fatal(err)
	}
	u, a, c, e := m.Counts()
	if u != 2 || a != 0 || c != 0 || e != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestSubmitRejectsDuplicateAndPastDeadline(t *testing.T) {
	m, clk := newTestManager()
	if err := m.Submit(testTask("t1", time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(testTask("t1", time.Minute)); !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("dup err = %v", err)
	}
	clk.Advance(2 * time.Minute)
	if err := m.Submit(testTask("t2", time.Minute)); !errors.Is(err, ErrPastDeadline) {
		t.Fatalf("past deadline err = %v", err)
	}
}

func TestSubmitStampsSubmittedTime(t *testing.T) {
	m, clk := newTestManager()
	clk.Advance(10 * time.Second)
	task := testTask("t1", time.Minute)
	task.Submitted = clock.Epoch.Add(-time.Hour) // caller-provided junk is overwritten
	if err := m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Get("t1")
	if !r.Task.Submitted.Equal(clk.Now()) {
		t.Fatalf("Submitted = %v, want %v", r.Task.Submitted, clk.Now())
	}
}

func TestAssignCompleteLifecycle(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 90*time.Second))
	if err := m.Assign("t1", "alice"); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Get("t1")
	if r.Status != Assigned || r.Worker != "alice" || r.Attempts != 1 {
		t.Fatalf("record after assign: %+v", r)
	}
	clk.Advance(15 * time.Second)
	rec, err := m.Complete("t1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != Completed || !rec.MetDeadline() {
		t.Fatalf("completed record: %+v", rec)
	}
	if rec.ExecTime() != 15*time.Second {
		t.Fatalf("ExecTime = %v", rec.ExecTime())
	}
	if rec.TotalTime() != 15*time.Second {
		t.Fatalf("TotalTime = %v", rec.TotalTime())
	}
}

func TestCompleteAfterDeadlineMisses(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 30*time.Second))
	m.Assign("t1", "bob")
	clk.Advance(45 * time.Second)
	rec, err := m.Complete("t1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.MetDeadline() {
		t.Fatal("late completion reported as meeting deadline")
	}
}

func TestStateMachineRejections(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	if err := m.Unassign("t1", CauseWorker, 0); !errors.Is(err, ErrBadState) {
		t.Fatalf("unassign unassigned err = %v", err)
	}
	if _, err := m.Complete("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("complete unassigned err = %v", err)
	}
	if err := m.Assign("nope", "w"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("assign unknown err = %v", err)
	}
	m.Assign("t1", "w")
	if err := m.Assign("t1", "w2"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double assign err = %v", err)
	}
	m.Complete("t1")
	if err := m.Unassign("t1", CauseWorker, 0); !errors.Is(err, ErrBadState) {
		t.Fatalf("unassign completed err = %v", err)
	}
}

// TestCompleteChecksHolder: a completion naming a worker other than the
// holder — a revoked worker answering after its task was rebound — is
// refused without touching the binding or emitting an event.
func TestCompleteChecksHolder(t *testing.T) {
	eng := engine.New(engine.Config{Clock: clock.NewVirtual(clock.Epoch)}, engine.Hooks{})
	m := eng.Tasks()
	var events []event.Event
	eng.Events().Tap(func(ev event.Event) { events = append(events, ev) })
	m.Submit(testTask("t1", time.Minute))
	m.Assign("t1", "bob")
	before := len(events)
	if _, err := eng.Complete("t1", "alice"); !errors.Is(err, engine.ErrNotAssigned) {
		t.Fatalf("non-holder complete err = %v, want ErrNotAssigned", err)
	}
	if r, _ := m.Get("t1"); r.Status != Assigned || r.Worker != "bob" {
		t.Fatalf("record after refused complete: %+v", r)
	}
	if len(events) != before {
		t.Fatalf("refused complete emitted %d events", len(events)-before)
	}
	rec, err := eng.Complete("t1", "bob")
	if err != nil || rec.Status != Completed || rec.Worker != "bob" {
		t.Fatalf("holder complete = %+v, %v", rec, err)
	}
}

func TestReassignmentKeepsAttempts(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("t1", 5*time.Minute))
	m.Assign("t1", "w1")
	clk.Advance(10 * time.Second)
	if err := m.Unassign("t1", CauseWorker, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Get("t1")
	if r.Status != Unassigned || r.Worker != "" || r.Attempts != 1 {
		t.Fatalf("after unassign: %+v", r)
	}
	m.Assign("t1", "w2")
	r, _ = m.Get("t1")
	if r.Attempts != 2 || r.Worker != "w2" {
		t.Fatalf("after reassign: %+v", r)
	}
	// AssignedAt reflects the latest assignment only.
	if !r.AssignedAt.Equal(clk.Now()) {
		t.Fatalf("AssignedAt after fresh reassign = %v, want %v", r.AssignedAt, clk.Now())
	}
}

func TestUnassignedSnapshotOrdering(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("b", 10*time.Minute))
	clk.Advance(time.Second)
	m.Submit(testTask("a", 10*time.Minute))
	clk.Advance(time.Second)
	m.Submit(testTask("c", 10*time.Minute))
	got := m.Unassigned()
	if len(got) != 3 || got[0].ID != "b" || got[1].ID != "a" || got[2].ID != "c" {
		t.Fatalf("order = %v", []string{got[0].ID, got[1].ID, got[2].ID})
	}
	m.Assign("a", "w")
	if m.UnassignedCount() != 2 {
		t.Fatalf("UnassignedCount = %d", m.UnassignedCount())
	}
}

func TestExpireDue(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("short", 30*time.Second))
	m.Submit(testTask("long", 10*time.Minute))
	m.Submit(testTask("running", 40*time.Second))
	m.Assign("running", "w")
	clk.Advance(time.Minute)
	expired := m.ExpireDue()
	if len(expired) != 2 {
		t.Fatalf("expired %d tasks, want 2", len(expired))
	}
	ids := []string{expired[0].Task.ID, expired[1].Task.ID}
	if ids[0] != "running" || ids[1] != "short" {
		t.Fatalf("expired ids = %v", ids)
	}
	for _, r := range expired {
		if r.Status != Expired || r.MetDeadline() {
			t.Fatalf("expired record: %+v", r)
		}
	}
	// Idempotent: second call finds nothing new.
	if again := m.ExpireDue(); len(again) != 0 {
		t.Fatalf("repeat ExpireDue returned %d", len(again))
	}
	u, a, c, e := m.Counts()
	if u != 1 || a != 0 || c != 0 || e != 2 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestAssignedTasksSnapshot(t *testing.T) {
	m, _ := newTestManager()
	for i := 0; i < 5; i++ {
		m.Submit(testTask(fmt.Sprintf("t%d", i), time.Minute))
	}
	m.Assign("t1", "w1")
	m.Assign("t3", "w3")
	got := m.AssignedTasks()
	if len(got) != 2 || got[0].Task.ID != "t1" || got[1].Task.ID != "t3" {
		t.Fatalf("AssignedTasks = %+v", got)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Unassigned: "unassigned", Assigned: "assigned",
		Completed: "completed", Expired: "expired", Status(9): "status(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q", int(s), got)
		}
	}
}

func TestConcurrentSubmitAssign(t *testing.T) {
	m, _ := newTestManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("g%d-t%d", g, i)
				if err := m.Submit(testTask(id, time.Hour)); err != nil {
					t.Error(err)
					return
				}
				if err := m.Assign(id, "w"); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Complete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	u, a, c, e := m.Counts()
	if u != 0 || a != 0 || c != 800 || e != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestRecordTimesZeroForNonTerminal(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	r, _ := m.Get("t1")
	if r.ExecTime() != 0 || r.TotalTime() != 0 {
		t.Fatalf("non-terminal times = %v/%v", r.ExecTime(), r.TotalTime())
	}
}

func TestExpireUnassignedLeavesAssignedRunning(t *testing.T) {
	m, clk := newTestManager()
	m.Submit(testTask("queued", 30*time.Second))
	m.Submit(testTask("running", 30*time.Second))
	m.Assign("running", "w")
	clk.Advance(time.Minute)
	expired := m.ExpireUnassigned()
	if len(expired) != 1 || expired[0].Task.ID != "queued" {
		t.Fatalf("expired = %+v", expired)
	}
	// The assigned task is still running and completes late.
	rec, err := m.Complete("running")
	if err != nil {
		t.Fatal(err)
	}
	if rec.MetDeadline() {
		t.Fatal("late completion met deadline")
	}
	u, a, c, e := m.Counts()
	if u != 0 || a != 0 || c != 1 || e != 1 {
		t.Fatalf("counts = %d/%d/%d/%d", u, a, c, e)
	}
}

func TestForgetTerminatedBefore(t *testing.T) {
	m, clk := newTestManager()
	// old: completed at t+10s. recent: completed at t+70s. live: assigned.
	m.Submit(testTask("old", 10*time.Minute))
	m.Assign("old", "w")
	clk.Advance(10 * time.Second)
	m.Complete("old")
	m.Submit(testTask("recent", 10*time.Minute))
	m.Assign("recent", "w")
	clk.Advance(time.Minute)
	m.Complete("recent")
	m.Submit(testTask("live", 10*time.Minute))
	m.Assign("live", "w")

	cutoff := clock.Epoch.Add(30 * time.Second)
	if got := m.ForgetTerminatedBefore(cutoff); got != 1 {
		t.Fatalf("removed %d, want 1", got)
	}
	if _, ok := m.Get("old"); ok {
		t.Fatal("old record survived GC")
	}
	if _, ok := m.Get("recent"); !ok {
		t.Fatal("recent record lost")
	}
	if _, ok := m.Get("live"); !ok {
		t.Fatal("live record lost")
	}
	_, a, c, _ := m.Counts()
	if a != 1 || c != 1 {
		t.Fatalf("counts after GC: assigned=%d completed=%d", a, c)
	}
	// Idempotent.
	if got := m.ForgetTerminatedBefore(cutoff); got != 0 {
		t.Fatalf("second GC removed %d", got)
	}
}

// Property: any sequence of operations keeps the per-status counts equal to
// a full recount, and status transitions stay legal.
func TestQuickCountsStayConsistent(t *testing.T) {
	f := func(ops []uint8) bool {
		clk := clock.NewVirtual(clock.Epoch)
		m := engine.NewTaskStore(clk, 1)
		next := 0
		ids := []string{}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				id := fmt.Sprintf("t%d", next)
				next++
				if m.Submit(Task{ID: id, Deadline: clk.Now().Add(time.Minute)}) == nil {
					ids = append(ids, id)
				}
			case 1:
				if len(ids) > 0 {
					m.Assign(ids[int(op)%len(ids)], "w")
				}
			case 2:
				if len(ids) > 0 {
					m.Unassign(ids[int(op)%len(ids)], CauseWorker, 0)
				}
			case 3:
				if len(ids) > 0 {
					m.Complete(ids[int(op)%len(ids)])
				}
			case 4:
				clk.Advance(time.Duration(op) * time.Second)
				m.ExpireUnassigned()
			case 5:
				m.ExpireDue()
			}
		}
		u, a, c, e := m.Counts()
		var ru, ra, rc, re int
		for _, id := range ids {
			rec, ok := m.Get(id)
			if !ok {
				return false
			}
			switch rec.Status {
			case Unassigned:
				ru++
			case Assigned:
				ra++
			case Completed:
				rc++
			case Expired:
				re++
			}
		}
		return u == ru && a == ra && c == rc && e == re && u+a+c+e == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkGradedOnce(t *testing.T) {
	m, _ := newTestManager()
	m.Submit(testTask("t1", time.Minute))
	if err := m.MarkGraded("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("grade before completion err = %v", err)
	}
	m.Assign("t1", "w")
	m.Complete("t1")
	if err := m.MarkGraded("t1"); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkGraded("t1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double grade err = %v", err)
	}
	if err := m.MarkGraded("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown grade err = %v", err)
	}
	r, _ := m.Get("t1")
	if !r.Graded {
		t.Fatal("record not marked graded")
	}
}

func TestUnassignedHighWater(t *testing.T) {
	m := engine.NewTaskStore(clock.NewVirtual(clock.Epoch), 1)
	highWater := func() int { return m.ShardStats()[0].UnassignedHighWater }
	if hw := highWater(); hw != 0 {
		t.Fatalf("fresh manager high-water = %d, want 0", hw)
	}
	for i := 0; i < 3; i++ {
		if err := m.Submit(testTask(fmt.Sprintf("t%d", i), 90*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if hw := highWater(); hw != 3 {
		t.Fatalf("high-water after 3 submissions = %d, want 3", hw)
	}
	// Draining the backlog must not lower the mark.
	for i := 0; i < 3; i++ {
		if err := m.Assign(fmt.Sprintf("t%d", i), "w1"); err != nil {
			t.Fatal(err)
		}
	}
	if hw := highWater(); hw != 3 {
		t.Fatalf("high-water after drain = %d, want 3", hw)
	}
	// A return to the pool counts toward a new peak: 2 in pool < 3, then
	// submissions push past the old mark.
	if err := m.Unassign("t0", CauseWorker, 0); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := m.Submit(testTask(fmt.Sprintf("t%d", i), 90*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if hw := highWater(); hw != 4 {
		t.Fatalf("high-water after refill = %d, want 4", hw)
	}
}

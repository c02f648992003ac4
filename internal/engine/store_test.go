package engine

import (
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/taskq"
)

// TestLifecycleEventsPublishUnderShardLock pins the ordering contract of
// the spine: every lifecycle event is published while the store's mutex is
// held, so no second mutation can start before the bus has sequenced the
// first and Seq order is the order the store applied them. A tap tries the
// store's lock and must find it taken, for every lifecycle kind. (The name
// predates the single registry; there are no shards left.)
func TestLifecycleEventsPublishUnderShardLock(t *testing.T) {
	clk := clock.NewVirtual(testEpoch)
	eng := New(Config{Clock: clk, Retention: time.Minute}, Hooks{})
	seen := map[event.Kind]int{}
	eng.Events().Tap(func(ev event.Event) {
		if !ev.Kind.Lifecycle() {
			return
		}
		seen[ev.Kind]++
		if eng.tasks.mu.TryLock() {
			eng.tasks.mu.Unlock()
			t.Errorf("%v of %q published with the store unlocked", ev.Kind, ev.Task)
		}
	})
	s := eng.Tasks()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"done", "queued", "running", "shed"} {
		must(s.Submit(testTask(id, clk)))
	}
	must(s.Assign("done", "w1"))
	must(s.Unassign("done", taskq.CauseEq2, 0.05))
	must(s.Assign("done", "w2"))
	_, err := s.Complete("done")
	must(err)
	must(s.Assign("running", "w3"))
	must(s.Shed("shed"))
	clk.Advance(2 * time.Minute)
	if n := len(s.ExpireUnassigned()) + len(s.ExpireDue()); n != 2 {
		t.Fatalf("expired %d tasks, want 2", n)
	}
	clk.Advance(2 * time.Minute)
	if n := s.ForgetTerminatedBefore(clk.Now()); n != 4 {
		t.Fatalf("forgot %d records, want 4", n)
	}
	for k := event.KindSubmit; k <= event.KindForget; k++ {
		if seen[k] == 0 {
			t.Errorf("no %v event published", k)
		}
	}
}

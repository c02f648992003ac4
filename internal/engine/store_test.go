package engine

import (
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/taskq"
)

// TestLifecycleEventsPublishUnderShardLock pins the ordering contract of
// the spine: every lifecycle event is published while the task's shard
// mutex is held, so no second mutation of the same task can start before
// the bus has sequenced the first. A tap tries the publishing shard's lock
// and must find it taken, for every lifecycle kind and at any shard count.
func TestLifecycleEventsPublishUnderShardLock(t *testing.T) {
	for _, shards := range []int{1, 4} {
		clk := clock.NewVirtual(testEpoch)
		eng := New(Config{Clock: clk, Shards: shards, Retention: time.Minute}, Hooks{})
		seen := map[event.Kind]int{}
		eng.Events().Tap(func(ev event.Event) {
			if !ev.Kind.Lifecycle() {
				return
			}
			seen[ev.Kind]++
			if sh := eng.tasks.shard(ev.Task); sh.mu.TryLock() {
				sh.mu.Unlock()
				t.Errorf("%d shards: %v of %q published with its shard unlocked", shards, ev.Kind, ev.Task)
			}
		})
		s := eng.Tasks()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%d shards: %v", shards, err)
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
			t.Fatalf("%d shards: expired %d tasks, want 2", shards, n)
		}
		clk.Advance(2 * time.Minute)
		if n := s.ForgetTerminatedBefore(clk.Now()); n != 4 {
			t.Fatalf("%d shards: forgot %d records, want 4", shards, n)
		}
		for k := event.KindSubmit; k <= event.KindForget; k++ {
			if seen[k] == 0 {
				t.Errorf("%d shards: no %v event published", shards, k)
			}
		}
	}
}

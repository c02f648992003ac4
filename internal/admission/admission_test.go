package admission

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/taskq"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// publish stands in for the engine's spine: the ledger the controller
// reads folds the event first, then the controller's tap sees it — the
// engine's tap order.
func publish(c *Controller, ev event.Event) {
	c.ledger.Observe(ev)
	c.Tap(ev)
}

// warm publishes n identical completions of the given execution time, as
// the spine would, so the fleet model leaves its cold state.
func warm(c *Controller, n int, exec time.Duration) {
	for i := 0; i < n; i++ {
		publish(c, event.Event{Kind: event.KindComplete, Record: taskq.Record{
			AssignedAt: t0,
			FinishedAt: t0.Add(exec),
		}})
		// Completions decrement inflight; balance with a submit+assign so
		// warming does not drive the load gauges negative.
		publish(c, event.Event{Kind: event.KindSubmit})
		publish(c, event.Event{Kind: event.KindAssign})
	}
}

func task(id string, ttd time.Duration, clk clock.Clock) taskq.Task {
	return taskq.Task{ID: id, Deadline: clk.Now().Add(ttd), Submitted: clk.Now()}
}

func TestZeroConfigAdmitsEverything(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{Clock: clk})
	for i := 0; i < 100; i++ {
		d := c.Decide("anyone", task("t", time.Nanosecond, clk))
		if !d.Admitted() {
			t.Fatalf("zero config rejected: %+v", d)
		}
		if d.Err() != nil {
			t.Fatalf("admitted decision carries error: %v", d.Err())
		}
	}
	admitted, rp, rr, shed := c.Counters()
	if admitted != 100 || rp != 0 || rr != 0 || shed != 0 {
		t.Fatalf("counters = %d %d %d %d, want 100 0 0 0", admitted, rp, rr, shed)
	}
}

func TestProbabilityFloor(t *testing.T) {
	// Fleet of 10 workers, warm model at 1s per task. The queue-delay
	// discount is unassigned/workers x median; the floor decides on the
	// CCDF of the remaining budget.
	newCtl := func() (*Controller, *clock.Virtual) {
		clk := clock.NewVirtual(t0)
		c := New(Config{Clock: clk, ProbFloor: 0.5, Workers: func() int { return 10 }})
		return c, clk
	}

	t.Run("cold model never rejects", func(t *testing.T) {
		c, clk := newCtl()
		warm(c, c.Config().MinSamples-1, time.Second) // one short of warm
		if d := c.Decide("r", task("t", time.Nanosecond, clk)); !d.Admitted() {
			t.Fatalf("cold model rejected: %+v", d)
		}
		if _, _, ok := c.FleetModel(); ok {
			t.Fatal("FleetModel reports warm below MinSamples")
		}
	})

	t.Run("past deadline rejects at probability zero", func(t *testing.T) {
		c, clk := newCtl()
		warm(c, 30, time.Second)
		d := c.Decide("r", task("t", 0, clk))
		if d.Status != StatusRejectedProbability || d.Probability != 0 {
			t.Fatalf("got %+v, want rejected_probability at 0", d)
		}
		if d.Status.Retryable() {
			t.Fatal("probability rejection must not be retryable")
		}
		var re *RejectionError
		if err := d.Err(); !errors.As(err, &re) || re.Decision.Status != d.Status {
			t.Fatalf("Err() = %v, want RejectionError carrying the decision", err)
		}
	})

	t.Run("generous deadline admits with probability attached", func(t *testing.T) {
		c, clk := newCtl()
		warm(c, 30, time.Second)
		d := c.Decide("r", task("t", time.Hour, clk))
		if !d.Admitted() {
			t.Fatalf("generous deadline rejected: %+v", d)
		}
		if d.Probability <= 0.5 || d.Probability > 1 {
			t.Fatalf("admitted probability = %v, want in (floor, 1]", d.Probability)
		}
	})

	t.Run("probability is monotone in the deadline", func(t *testing.T) {
		c, clk := newCtl()
		warm(c, 30, time.Second)
		prev := -1.0
		for _, ttd := range []time.Duration{
			100 * time.Millisecond, time.Second, 3 * time.Second, 30 * time.Second,
		} {
			p, ok := c.probMeet(ttd)
			if !ok {
				t.Fatalf("model cold at ttd %v", ttd)
			}
			if p < prev {
				t.Fatalf("probMeet(%v) = %v < previous %v", ttd, p, prev)
			}
			prev = p
		}
		_ = clk
	})

	t.Run("queue backlog flips the verdict", func(t *testing.T) {
		c, clk := newCtl()
		warm(c, 30, time.Second)
		ttd := 3 * time.Second
		if d := c.Decide("r", task("t", ttd, clk)); !d.Admitted() {
			t.Fatalf("uncontended deadline rejected: %+v", d)
		}
		// 100 waiting tasks / 10 workers x 1s median = ~10s of queue ahead;
		// a 3s deadline is now hopeless.
		for i := 0; i < 100; i++ {
			publish(c, event.Event{Kind: event.KindSubmit})
		}
		d := c.Decide("r", task("t2", ttd, clk))
		if d.Status != StatusRejectedProbability {
			t.Fatalf("got %+v behind 100-deep queue, want rejected_probability", d)
		}
	})

	t.Run("floor zero disables the gate", func(t *testing.T) {
		clk := clock.NewVirtual(t0)
		c := New(Config{Clock: clk, Workers: func() int { return 10 }})
		warm(c, 30, time.Second)
		if d := c.Decide("r", task("t", time.Nanosecond, clk)); !d.Admitted() {
			t.Fatalf("floor 0 rejected: %+v", d)
		}
	})
}

func TestTokenBucket(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{Clock: clk, RequesterRate: 2, RequesterBurst: 4})

	// The burst admits 4 back-to-back; the 5th is rejected with a
	// retry-after equal to one token's accrual time at 2/s.
	for i := 0; i < 4; i++ {
		if d := c.Decide("alice", task("t", time.Hour, clk)); !d.Admitted() {
			t.Fatalf("burst submission %d rejected: %+v", i, d)
		}
	}
	d := c.Decide("alice", task("t", time.Hour, clk))
	if d.Status != StatusRejectedRate {
		t.Fatalf("got %+v, want rejected_rate", d)
	}
	if !d.Status.Retryable() {
		t.Fatal("rate rejection must be retryable")
	}
	if d.RetryAfter != 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want 500ms (one token at 2/s)", d.RetryAfter)
	}

	// Exactly one token accrues over the hinted wait: one admit, then
	// rejected again.
	clk.Advance(d.RetryAfter)
	if d := c.Decide("alice", task("t", time.Hour, clk)); !d.Admitted() {
		t.Fatalf("post-refill submission rejected: %+v", d)
	}
	if d := c.Decide("alice", task("t", time.Hour, clk)); d.Status != StatusRejectedRate {
		t.Fatalf("got %+v, want rejected_rate (bucket drained again)", d)
	}

	// Refill caps at the burst: after a long idle spell only 4 tokens wait.
	clk.Advance(time.Hour)
	for i := 0; i < 4; i++ {
		if d := c.Decide("alice", task("t", time.Hour, clk)); !d.Admitted() {
			t.Fatalf("post-idle submission %d rejected: %+v", i, d)
		}
	}
	if d := c.Decide("alice", task("t", time.Hour, clk)); d.Status != StatusRejectedRate {
		t.Fatalf("got %+v, want rejected_rate (burst must cap refill)", d)
	}

	// Other requesters have their own buckets; the empty requester id
	// (internal paths) bypasses rate limiting entirely.
	if d := c.Decide("bob", task("t", time.Hour, clk)); !d.Admitted() {
		t.Fatalf("bob rejected on alice's empty bucket: %+v", d)
	}
	for i := 0; i < 50; i++ {
		if d := c.Decide("", task("t", time.Hour, clk)); !d.Admitted() {
			t.Fatalf("exempt requester rejected: %+v", d)
		}
	}
}

func TestBucketDefaultBurst(t *testing.T) {
	c := New(Config{Clock: clock.NewVirtual(t0), RequesterRate: 3})
	if got := c.Config().RequesterBurst; got != 6 {
		t.Fatalf("default burst = %v, want 2x rate", got)
	}
	c = New(Config{Clock: clock.NewVirtual(t0), RequesterRate: 0.1})
	if got := c.Config().RequesterBurst; got != 1 {
		t.Fatalf("default burst = %v, want minimum 1", got)
	}
}

func TestBucketEviction(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{Clock: clk, RequesterRate: 1, RequesterBurst: 2})
	// Fill the table to its cap with requesters that never return. Their
	// buckets refill to full burst and become evictable.
	for i := 0; i < maxBuckets; i++ {
		c.Decide(fmt.Sprintf("r%04d", i), task("t", time.Hour, clk))
	}
	clk.Advance(time.Hour) // everyone refills to full
	c.Decide("newcomer", task("t", time.Hour, clk))
	c.bktMu.Lock()
	n := len(c.buckets)
	c.bktMu.Unlock()
	if n > 1 {
		t.Fatalf("%d buckets survive eviction, want just the newcomer", n)
	}
}

func TestBucketSnapshotSortedAndRefreshed(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{Clock: clk, RequesterRate: 1, RequesterBurst: 2})
	c.Decide("zoe", task("t", time.Hour, clk))
	c.Decide("abe", task("t", time.Hour, clk))
	c.Decide("abe", task("t", time.Hour, clk)) // abe drained to 0
	clk.Advance(500 * time.Millisecond)        // half a token back

	s := c.Snapshot()
	if len(s.Buckets) != 2 || s.Buckets[0].Requester != "abe" || s.Buckets[1].Requester != "zoe" {
		t.Fatalf("buckets = %+v, want [abe zoe]", s.Buckets)
	}
	if got := s.Buckets[0].Fill; got != 0.5 {
		t.Fatalf("abe fill = %v, want 0.5 (refreshed to now)", got)
	}
	if s.Buckets[0].Burst != 2 {
		t.Fatalf("burst = %v, want 2", s.Buckets[0].Burst)
	}
}

func TestMaxInflightCeiling(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{Clock: clk, MaxInflight: 3})
	for i := 0; i < 3; i++ {
		if d := c.Decide("r", task("t", time.Hour, clk)); !d.Admitted() {
			t.Fatalf("submission %d under ceiling rejected: %+v", i, d)
		}
		publish(c, event.Event{Kind: event.KindSubmit})
	}
	d := c.Decide("r", task("t", time.Hour, clk))
	if d.Status != StatusRejectedRate {
		t.Fatalf("got %+v at ceiling, want rejected_rate", d)
	}
	if d.RetryAfter != time.Second {
		t.Fatalf("cold drain hint = %v, want 1s", d.RetryAfter)
	}

	// One completion frees a slot.
	publish(c, event.Event{Kind: event.KindAssign})
	publish(c, event.Event{Kind: event.KindComplete, Record: taskq.Record{
		AssignedAt: t0, FinishedAt: t0.Add(2 * time.Second),
	}})
	if d := c.Decide("r", task("t", time.Hour, clk)); !d.Admitted() {
		t.Fatalf("submission after drain rejected: %+v", d)
	}

	// A warm model sizes the drain hint to the fleet median (clamped).
	warm(c, 40, 2*time.Second)
	for c.ledger.InFlight() < 3 {
		publish(c, event.Event{Kind: event.KindSubmit})
	}
	d = c.Decide("r", task("t", time.Hour, clk))
	if d.Status != StatusRejectedRate {
		t.Fatalf("got %+v at ceiling, want rejected_rate", d)
	}
	if d.RetryAfter < 2*time.Second || d.RetryAfter > 30*time.Second {
		t.Fatalf("warm drain hint = %v, want within [median, 30s]", d.RetryAfter)
	}
}

func TestObserverSeesEveryDecision(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{Clock: clk, RequesterRate: 1, RequesterBurst: 1})
	var seen []Status
	c.SetObserver(func(d Decision) { seen = append(seen, d.Status) })
	c.Decide("r", task("t", time.Hour, clk))
	c.Decide("r", task("t", time.Hour, clk))
	if len(seen) != 2 || seen[0] != StatusAdmitted || seen[1] != StatusRejectedRate {
		t.Fatalf("observer saw %v, want [admitted rejected_rate]", seen)
	}
	c.SetObserver(nil)
	c.Decide("r2", task("t", time.Hour, clk))
	if len(seen) != 2 {
		t.Fatal("cleared observer still called")
	}
}

package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"react/internal/clock"
)

func TestStepDeliversInTimeOrder(t *testing.T) {
	e := New(1)
	var got []string
	e.After(3*time.Second, "c", func(time.Time) { got = append(got, "c") })
	e.After(1*time.Second, "a", func(time.Time) { got = append(got, "a") })
	e.After(2*time.Second, "b", func(time.Time) { got = append(got, "b") })
	for e.Step() {
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := New(1)
	at := e.Now().Add(time.Second)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(at, "x", func(time.Time) { got = append(got, i) })
	}
	e.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %v", i, got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := New(1)
	target := e.Now().Add(42 * time.Second)
	var at time.Time
	e.Schedule(target, "probe", func(now time.Time) { at = now })
	e.Drain()
	if !at.Equal(target) {
		t.Fatalf("handler saw %v, want %v", at, target)
	}
	if !e.Now().Equal(target) {
		t.Fatalf("clock at %v, want %v", e.Now(), target)
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	e := New(1)
	e.RunFor(time.Minute)
	fired := false
	e.Schedule(clock.Epoch, "stale", func(now time.Time) {
		fired = true
		if now.Before(e.Now()) {
			t.Errorf("stale event fired in the past: %v", now)
		}
	})
	e.Drain()
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
}

func TestCancelPreventsDelivery(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Second, "x", func(time.Time) { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report no effect")
	}
	e.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(time.Second, "x", func(time.Time) {})
	e.Drain()
	if tm.Cancel() {
		t.Fatal("Cancel after firing should report no effect")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New(1)
	var fired []string
	e.After(10*time.Second, "early", func(time.Time) { fired = append(fired, "early") })
	e.After(100*time.Second, "late", func(time.Time) { fired = append(fired, "late") })
	deadline := e.Now().Add(50 * time.Second)
	n := e.RunUntil(deadline)
	if n != 1 {
		t.Fatalf("delivered %d events, want 1", n)
	}
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("fired %v, want [early]", fired)
	}
	if !e.Now().Equal(deadline) {
		t.Fatalf("clock at %v, want deadline %v", e.Now(), deadline)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := New(1)
	tm := e.After(time.Second, "dead", func(time.Time) { t.Error("cancelled head fired") })
	fired := false
	e.After(2*time.Second, "live", func(time.Time) { fired = true })
	tm.Cancel()
	e.RunFor(time.Minute)
	if !fired {
		t.Fatal("live event not delivered")
	}
}

func TestEveryTicksAtPeriodUntilStopped(t *testing.T) {
	e := New(1)
	var ticks []time.Time
	stop := e.Every(10*time.Second, "tick", func(now time.Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			// stop from within the handler
		}
	})
	e.RunFor(55 * time.Second)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks in 55s at 10s period, want 5", len(ticks))
	}
	for i, at := range ticks {
		want := clock.Epoch.Add(time.Duration(i+1) * 10 * time.Second)
		if !at.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	stop()
	before := len(ticks)
	e.RunFor(time.Minute)
	if len(ticks) != before {
		t.Fatalf("ticker kept firing after stop: %d → %d", before, len(ticks))
	}
}

func TestEveryStopFromWithinHandler(t *testing.T) {
	e := New(1)
	count := 0
	var stop func()
	stop = e.Every(time.Second, "tick", func(time.Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	e.Drain()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New(1).Every(0, "bad", func(time.Time) {})
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	New(1).After(time.Second, "bad", nil)
}

func TestHandlerMaySchedule(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse Handler
	recurse = func(time.Time) {
		depth++
		if depth < 100 {
			e.After(time.Millisecond, "r", recurse)
		}
	}
	e.After(time.Millisecond, "r", recurse)
	e.Drain()
	if depth != 100 {
		t.Fatalf("recursion depth %d, want 100", depth)
	}
}

func TestRandStreamsDeterministicAndIndependent(t *testing.T) {
	a1 := New(7).Rand("workers")
	a2 := New(7).Rand("workers")
	b := New(7).Rand("tasks")
	for i := 0; i < 100; i++ {
		x, y := a1.Float64(), a2.Float64()
		if x != y {
			t.Fatalf("same seed+label diverged at %d: %v vs %v", i, x, y)
		}
	}
	// Different labels should not produce the identical stream.
	same := true
	a3 := New(7).Rand("workers")
	for i := 0; i < 16; i++ {
		if a3.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct labels produced identical streams")
	}
}

// Property: for any set of non-negative delays, delivery order is sorted by
// fire time.
func TestQuickDeliveryOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := New(99)
		var seen []time.Time
		for _, ms := range raw {
			d := time.Duration(ms) * time.Millisecond
			e.After(d, "x", func(now time.Time) { seen = append(seen, now) })
		}
		e.Drain()
		for i := 1; i < len(seen); i++ {
			if seen[i].Before(seen[i-1]) {
				return false
			}
		}
		return len(seen) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(int64(i))
		rng := e.Rand("bench")
		for j := 0; j < 1000; j++ {
			e.After(time.Duration(rng.Intn(1_000_000))*time.Microsecond, "e", func(time.Time) {})
		}
		e.Drain()
	}
}

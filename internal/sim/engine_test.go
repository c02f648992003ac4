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
	e.After(3*time.Second, func(time.Time) { got = append(got, "c") })
	e.After(1*time.Second, func(time.Time) { got = append(got, "a") })
	e.After(2*time.Second, func(time.Time) { got = append(got, "b") })
	e.RunFor(time.Minute)
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
		e.Schedule(at, func(time.Time) { got = append(got, i) })
	}
	e.RunFor(time.Hour)
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
	e.Schedule(target, func(now time.Time) { at = now })
	e.RunUntil(target)
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
	e.Schedule(clock.Epoch, func(now time.Time) {
		fired = true
		if now.Before(e.Now()) {
			t.Errorf("stale event fired in the past: %v", now)
		}
	})
	e.RunFor(time.Hour)
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New(1)
	var fired []string
	e.After(10*time.Second, func(time.Time) { fired = append(fired, "early") })
	e.After(100*time.Second, func(time.Time) { fired = append(fired, "late") })
	deadline := e.Now().Add(50 * time.Second)
	e.RunUntil(deadline)
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("fired %v, want [early]", fired)
	}
	if !e.Now().Equal(deadline) {
		t.Fatalf("clock at %v, want deadline %v", e.Now(), deadline)
	}
	e.RunFor(time.Minute)
	if len(fired) != 2 || fired[1] != "late" {
		t.Fatalf("fired %v after the deadline, want [early late]", fired)
	}
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("After(nil) did not panic")
		}
	}()
	New(1).After(time.Second, nil)
}

func TestHandlerMaySchedule(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse Handler
	recurse = func(time.Time) {
		depth++
		if depth < 100 {
			e.After(time.Millisecond, recurse)
		}
	}
	e.After(time.Millisecond, recurse)
	e.RunFor(time.Hour)
	if depth != 100 {
		t.Fatalf("recursion depth %d, want 100", depth)
	}
}

func TestRandStreamsDeterministicAndIndependent(t *testing.T) {
	a1 := New(7).Rand("workers")
	a2 := Rand(7, "workers") // what a component built before the engine draws
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
			e.After(d, func(now time.Time) { seen = append(seen, now) })
		}
		e.RunFor(time.Hour)
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

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(int64(i))
		rng := e.Rand("bench")
		for j := 0; j < 1000; j++ {
			e.After(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func(time.Time) {})
		}
		e.RunFor(time.Hour)
	}
}

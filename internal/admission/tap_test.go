package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/taskq"
)

func TestTapLoadAccounting(t *testing.T) {
	// The load gauges are the attached ledger's: the test feeds the ledger
	// it hands the controller, as the engine's spine does, and reads the
	// gauges back through the controller.
	var led event.Ledger
	c := New(Config{Clock: clock.NewVirtual(t0)})
	c.Attach(&led)
	check := func(wantIn, wantUn int64, step string) {
		t.Helper()
		in, un := c.Loads()
		if in != wantIn || un != wantUn {
			t.Fatalf("%s: inflight=%d unassigned=%d, want %d %d", step, in, un, wantIn, wantUn)
		}
		if in != led.InFlight() || un != led.Unassigned() {
			t.Fatalf("%s: controller reads %d/%d, its ledger holds %d/%d", step, in, un, led.InFlight(), led.Unassigned())
		}
	}

	publish(c, event.Event{Kind: event.KindSubmit})
	publish(c, event.Event{Kind: event.KindSubmit})
	check(2, 2, "two submits")

	publish(c, event.Event{Kind: event.KindAssign})
	check(2, 1, "assign moves one off the pool")

	publish(c, event.Event{Kind: event.KindRevoke})
	check(2, 2, "revoke returns it")

	publish(c, event.Event{Kind: event.KindAssign})
	publish(c, event.Event{Kind: event.KindComplete, Record: taskq.Record{
		AssignedAt: t0, FinishedAt: t0.Add(time.Second),
	}})
	check(1, 1, "completion retires the assigned task")

	// A pool-resident expiry (AssignedAt zero) drains both gauges; the
	// shed cause additionally bumps the shed counter.
	publish(c, event.Event{Kind: event.KindExpire, Cause: taskq.CauseShed, Record: taskq.Record{}})
	check(0, 0, "pool-resident shed expiry")
	if _, _, _, shed := c.Counters(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}

	// An assigned-expiry (end-of-run sweep) was already off the unassigned
	// count; only inflight drops.
	publish(c, event.Event{Kind: event.KindSubmit})
	publish(c, event.Event{Kind: event.KindAssign})
	publish(c, event.Event{Kind: event.KindExpire, Record: taskq.Record{AssignedAt: t0}})
	check(0, 0, "assigned expiry")
	if _, _, _, shed := c.Counters(); shed != 1 {
		t.Fatal("plain expiry must not count as shed")
	}

	// Batch and forget events carry no load signal.
	publish(c, event.Event{Kind: event.KindBatch})
	publish(c, event.Event{Kind: event.KindForget})
	check(0, 0, "batch/forget ignored")
}

func TestTapFeedsFleetModel(t *testing.T) {
	c := New(Config{Clock: clock.NewVirtual(t0), MinSamples: 3})
	if _, _, ok := c.FleetModel(); ok {
		t.Fatal("model warm with zero samples")
	}
	// Zero-exec completions (never-assigned records) must not pollute it.
	c.Tap(event.Event{Kind: event.KindComplete, Record: taskq.Record{}})
	// The tap feeds the model and nothing else: on a controller nobody
	// attached, no event moves a load gauge.
	c.Tap(event.Event{Kind: event.KindSubmit})
	if in, un := c.Loads(); in != 0 || un != 0 {
		t.Fatalf("tap alone moved the load gauges to %d/%d", in, un)
	}
	for i := 0; i < 3; i++ {
		c.Tap(event.Event{Kind: event.KindComplete, Record: taskq.Record{
			AssignedAt: t0, FinishedAt: t0.Add(2 * time.Second),
		}})
	}
	samples, median, ok := c.FleetModel()
	if !ok || samples != 3 {
		t.Fatalf("model samples=%d ok=%v, want 3 warm", samples, ok)
	}
	if median < 2 {
		t.Fatalf("median = %v, want >= the 2s sample floor", median)
	}
	s := c.Snapshot()
	if s.FleetSamples != 3 || s.MedianExecSeconds != median {
		t.Fatalf("snapshot model = %d/%.2f, want 3/%.2f", s.FleetSamples, s.MedianExecSeconds, median)
	}
}

func TestSnapshotCapacity(t *testing.T) {
	c := New(Config{Clock: clock.NewVirtual(t0), MinSamples: 2, Workers: func() int { return 8 }})
	for i := 0; i < 2; i++ {
		c.Tap(event.Event{Kind: event.KindComplete, Record: taskq.Record{
			AssignedAt: t0, FinishedAt: t0.Add(4 * time.Second),
		}})
	}
	s := c.Snapshot()
	if s.WorkersOnline != 8 {
		t.Fatalf("workers = %d, want 8", s.WorkersOnline)
	}
	want := 8 / s.MedianExecSeconds
	if s.CapacityPerSec != want {
		t.Fatalf("capacity = %v, want workers/median = %v", s.CapacityPerSec, want)
	}
}

// TestTapConcurrent exercises every controller surface at once under the
// race detector: a real spine (event.Bus) publishing from several
// goroutines while Decide, Snapshot, and TickShed run against it.
func TestTapConcurrent(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := New(Config{
		Clock:         clk,
		ProbFloor:     0.5,
		MinSamples:    5,
		MaxInflight:   64,
		RequesterRate: 1000,
		ShedTarget:    time.Millisecond,
		ShedInterval:  time.Millisecond,
		Workers:       func() int { return 4 },
	})
	c.SetObserver(func(Decision) {})
	var led event.Ledger
	c.Attach(&led)
	bus := event.NewBus()
	bus.Tap(led.Observe)
	bus.Tap(c.Tap)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-t%d", g, i)
				rec := taskq.Record{Task: taskq.Task{ID: id}}
				bus.Publish(event.Event{Kind: event.KindSubmit, Task: id, Record: rec})
				bus.Publish(event.Event{Kind: event.KindAssign, Task: id, Record: rec})
				rec.AssignedAt = t0
				rec.FinishedAt = t0.Add(time.Duration(i%7+1) * 100 * time.Millisecond)
				bus.Publish(event.Event{Kind: event.KindComplete, Task: id, Record: rec})
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			c.Decide(fmt.Sprintf("r%d", i%3), taskq.Task{
				ID: "probe", Deadline: clk.Now().Add(time.Second), Submitted: clk.Now(),
			})
		}
	}()
	go func() {
		defer wg.Done()
		pool := &fakePool{}
		for i := 0; i < 100; i++ {
			c.Snapshot()
			c.Counters()
			c.Loads()
			c.TickShed(pool)
		}
	}()
	wg.Wait()

	if in, un := c.Loads(); in != 0 || un != 0 {
		t.Fatalf("loads after balanced traffic = %d/%d, want 0/0", in, un)
	}
	if samples, _, ok := c.FleetModel(); !ok || samples != 4*200 {
		t.Fatalf("fleet samples = %d (warm=%v), want 800", samples, ok)
	}
}

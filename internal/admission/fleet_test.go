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
	c := newCtl(Config{}, clock.NewVirtual(t0), 0)
	led := c.ledger
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
	publish(c, event.Event{Kind: event.KindBatch, Batch: &event.BatchStats{}})
	publish(c, event.Event{Kind: event.KindForget})
	check(0, 0, "batch/forget ignored")
}

// TestTapFeedsFleetModel: the fleet model is the attached registry's,
// fed by the registry's own spine fold from every completion, whoever
// answered it.
func TestTapFeedsFleetModel(t *testing.T) {
	c := newCtl(Config{}, clock.NewVirtual(t0), 0)
	if _, _, ok := c.FleetModel(); ok {
		t.Fatal("model warm with zero samples")
	}
	// Zero-exec completions (never-assigned records) must not pollute it.
	c.reg.Observe(event.Event{Kind: event.KindComplete, Record: taskq.Record{}})
	// The registry's fold feeds the model and nothing else: no event it
	// sees moves a load gauge, which only the ledger folds.
	c.reg.Observe(event.Event{Kind: event.KindSubmit})
	if in, un := c.Loads(); in != 0 || un != 0 {
		t.Fatalf("registry fold alone moved the load gauges to %d/%d", in, un)
	}
	for i := 0; i < minSamples; i++ {
		if _, _, ok := c.FleetModel(); ok {
			t.Fatalf("model warm after %d samples, want %d", i, minSamples)
		}
		c.reg.Observe(event.Event{Kind: event.KindComplete, Worker: "gone", Record: taskq.Record{
			AssignedAt: t0, FinishedAt: t0.Add(2 * time.Second),
		}})
	}
	samples, median, ok := c.FleetModel()
	if !ok || samples != minSamples {
		t.Fatalf("model samples=%d ok=%v, want %d warm", samples, ok, minSamples)
	}
	if median < 2 {
		t.Fatalf("median = %v, want >= the 2s sample floor", median)
	}
	s := c.Snapshot()
	if s.FleetSamples != minSamples || s.MedianExecSeconds != median {
		t.Fatalf("snapshot model = %d/%.2f, want %d/%.2f", s.FleetSamples, s.MedianExecSeconds, minSamples, median)
	}
}

func TestSnapshotCapacity(t *testing.T) {
	c := newCtl(Config{}, clock.NewVirtual(t0), 8)
	if s := c.Snapshot(); s.WorkersOnline != 8 || s.CapacityPerSec != 0 || c.CapacityPerSec() != 0 {
		t.Fatalf("cold snapshot: workers %d, capacity %v/%v; want 8, 0", s.WorkersOnline, s.CapacityPerSec, c.CapacityPerSec())
	}
	warm(c, minSamples, 4*time.Second)
	s := c.Snapshot()
	if s.WorkersOnline != 8 {
		t.Fatalf("workers = %d, want 8", s.WorkersOnline)
	}
	want := 8 / s.MedianExecSeconds
	if s.CapacityPerSec != want || c.CapacityPerSec() != want {
		t.Fatalf("capacity = %v/%v, want workers/median = %v", s.CapacityPerSec, c.CapacityPerSec(), want)
	}
	// The online count is the registry's: a worker going offline leaves it.
	p, _ := c.reg.Get("w0")
	p.SetAvailable(false)
	if s := c.Snapshot(); s.WorkersOnline != 7 {
		t.Fatalf("workers after one went offline = %d, want 7", s.WorkersOnline)
	}
}

// TestTapConcurrent exercises every controller surface at once under the
// race detector: a real spine (event.Bus) publishing into the ledger and
// registry from several goroutines while Decide, Snapshot, and TickShed
// read them.
func TestTapConcurrent(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := newCtl(Config{
		ProbFloor:     0.5,
		MaxInflight:   64,
		RequesterRate: 1000,
		ShedTarget:    time.Millisecond,
		ShedInterval:  time.Millisecond,
	}, clk, 4)
	c.SetObserver(func(Decision) {})
	bus := event.NewBus()
	bus.Tap(c.ledger.Observe) // the engine's two taps, in its order
	bus.Tap(c.reg.Observe)

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

// Package sim is a deterministic discrete-event simulation engine. It stands
// in for the paper's PlanetLab deployment: virtual workers, requesters and
// the REACT server all run as event handlers against a virtual clock, so an
// experiment that covers tens of simulated minutes executes in milliseconds
// and yields the same series for the same seed.
//
// The engine is deliberately single-threaded: handlers run one at a time in
// timestamp order (FIFO among equal timestamps), which is what makes runs
// reproducible. Concurrency in the *deployed* middleware is exercised by the
// wire/core live mode instead.
package sim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"react/internal/clock"
)

// Handler is an event callback. It receives the virtual instant at which the
// event fires.
type Handler func(now time.Time)

// Timer is a handle to a scheduled event; it can be cancelled before firing.
type Timer struct {
	at       time.Time
	seq      uint64
	name     string
	fn       Handler
	canceled bool
	fired    bool
}

// At reports the instant the timer is scheduled to fire.
func (t *Timer) At() time.Time { return t.at }

// Name reports the label the event was scheduled with.
func (t *Timer) Name() string { return t.name }

// Cancel prevents the event from firing. It reports whether the cancellation
// had effect (false if the event already fired or was already cancelled).
func (t *Timer) Cancel() bool {
	if t.fired || t.canceled {
		return false
	}
	t.canceled = true
	return true
}

// eventQueue is a min-heap ordered by (time, sequence).
type eventQueue []*Timer

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*Timer)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	clk   *clock.Virtual
	queue eventQueue
	seq   uint64
	seed  int64
	fired uint64
}

// New returns an engine whose clock starts at clock.Epoch and whose RNG
// streams derive from seed.
func New(seed int64) *Engine {
	return NewAt(clock.Epoch, seed)
}

// NewAt returns an engine whose clock starts at the given instant.
func NewAt(start time.Time, seed int64) *Engine {
	return &Engine{clk: clock.NewVirtual(start), seed: seed}
}

// Clock exposes the engine's virtual clock for components that only need to
// read time.
func (e *Engine) Clock() clock.Clock { return e.clk }

// Now reports the current virtual instant.
func (e *Engine) Now() time.Time { return e.clk.Now() }

// Pending reports the number of events still queued (including cancelled
// events not yet drained).
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run at the given instant. Scheduling in the past is
// clamped to the current instant (the event fires on the next step). The
// returned Timer may be used to cancel the event.
func (e *Engine) Schedule(at time.Time, name string, fn Handler) *Timer {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	if at.Before(e.clk.Now()) {
		at = e.clk.Now()
	}
	e.seq++
	t := &Timer{at: at, seq: e.seq, name: name, fn: fn}
	heap.Push(&e.queue, t)
	return t
}

// After queues fn to run d after the current instant.
func (e *Engine) After(d time.Duration, name string, fn Handler) *Timer {
	return e.Schedule(e.clk.Now().Add(d), name, fn)
}

// Every schedules fn at the given period, starting one period from now,
// until the returned stop function is called. The period must be positive.
func (e *Engine) Every(period time.Duration, name string, fn Handler) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	stopped := false
	var tick Handler
	tick = func(now time.Time) {
		if stopped {
			return
		}
		fn(now)
		if !stopped {
			e.After(period, name, tick)
		}
	}
	e.After(period, name, tick)
	return func() { stopped = true }
}

// Step delivers the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		t := heap.Pop(&e.queue).(*Timer)
		if t.canceled {
			continue
		}
		e.clk.Set(t.at)
		t.fired = true
		e.fired++
		t.fn(t.at)
		return true
	}
	return false
}

// RunUntil delivers events in order until the queue is empty or the next
// event is after deadline. The clock finishes at deadline if it was reached,
// otherwise at the last event's timestamp. It returns the number of events
// delivered.
func (e *Engine) RunUntil(deadline time.Time) (delivered uint64) {
	start := e.fired
	for len(e.queue) > 0 {
		// Peek: drain cancelled heads without advancing time.
		head := e.queue[0]
		if head.canceled {
			heap.Pop(&e.queue)
			continue
		}
		if head.at.After(deadline) {
			break
		}
		e.Step()
	}
	e.clk.Set(deadline)
	return e.fired - start
}

// RunFor is RunUntil(now + d).
func (e *Engine) RunFor(d time.Duration) uint64 {
	return e.RunUntil(e.clk.Now().Add(d))
}

// Drain delivers every remaining event regardless of timestamp and returns
// the number delivered. It guards against runaway self-rescheduling with a
// generous cap; exceeding the cap panics, which in practice only a forgotten
// Every ticker triggers.
func (e *Engine) Drain() (delivered uint64) {
	const cap = 50_000_000
	start := e.fired
	for e.Step() {
		if e.fired-start > cap {
			panic("sim: Drain exceeded event cap; unbounded rescheduling?")
		}
	}
	return e.fired - start
}

// Rand derives a deterministic RNG stream from the engine seed and a label.
// Distinct labels give independent streams, so adding a new consumer does
// not perturb existing ones — the property that keeps figure series stable
// as the system grows.
func (e *Engine) Rand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, label)
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

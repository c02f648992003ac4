// Package sim is a deterministic discrete-event simulation engine. It stands
// in for the paper's PlanetLab deployment: virtual workers, requesters and
// the REACT server all run as event handlers against a virtual clock, so an
// experiment that covers tens of simulated minutes executes in milliseconds
// and yields the same series for the same seed.
//
// The engine is deliberately single-threaded: handlers run one at a time in
// timestamp order (FIFO among equal timestamps), which is what makes runs
// reproducible. Concurrency in the *deployed* middleware is exercised by the
// wire live mode instead.
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
type Handler = func(now time.Time)

// event is one scheduled handler.
type event struct {
	at  time.Time
	seq uint64
	fn  Handler
}

// eventQueue is a min-heap ordered by (time, sequence).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
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
}

// New returns an engine whose clock starts at clock.Epoch and whose RNG
// streams derive from seed.
func New(seed int64) *Engine {
	return &Engine{clk: clock.NewVirtual(clock.Epoch), seed: seed}
}

// Clock exposes the engine's virtual clock for components that only need to
// read time.
func (e *Engine) Clock() clock.Clock { return e.clk }

// Now reports the current virtual instant.
func (e *Engine) Now() time.Time { return e.clk.Now() }

// Schedule queues fn to run at the given instant. Scheduling in the past is
// clamped to the current instant (the event fires on the next step).
func (e *Engine) Schedule(at time.Time, fn Handler) {
	e.After(at.Sub(e.clk.Now()), fn)
}

// After queues fn to run d after the current instant; a negative d is
// clamped to zero. Events due at one instant run in the order they were
// queued.
func (e *Engine) After(d time.Duration, fn Handler) {
	if fn == nil {
		panic("sim: After with nil handler")
	}
	e.seq++
	heap.Push(&e.queue, &event{at: e.clk.Now().Add(max(d, 0)), seq: e.seq, fn: fn})
}

// step delivers the single earliest pending event, advancing the clock to
// its timestamp.
func (e *Engine) step() {
	ev := heap.Pop(&e.queue).(*event)
	e.clk.Set(ev.at)
	ev.fn(ev.at)
}

// RunUntil delivers events in order until the queue is empty or the next
// event is after deadline. The clock finishes at deadline.
func (e *Engine) RunUntil(deadline time.Time) {
	for len(e.queue) > 0 && !e.queue[0].at.After(deadline) {
		e.step()
	}
	e.clk.Set(deadline)
}

// RunFor is RunUntil(now + d).
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.clk.Now().Add(d))
}

// Rand derives a deterministic RNG stream from a seed and a label.
// Distinct labels give independent streams, so adding a new consumer does
// not perturb existing ones — the property that keeps figure series stable
// as the system grows.
func Rand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, label)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// Rand is Rand(seed, label) for the engine's seed.
func (e *Engine) Rand(label string) *rand.Rand { return Rand(e.seed, label) }

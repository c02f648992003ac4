package event

import (
	"sync"
	"sync/atomic"
)

// Bus fans one publisher's events out to any number of consumers, in two
// tiers with opposite guarantees:
//
//   - Taps are synchronous and lossless. They run inside Publish — for
//     lifecycle events, under the task store's mutex — so they see every
//     lifecycle event in Seq order with no buffer in between.
//     The price is the publisher's lock: a tap must be fast, must not
//     block, and must not call back into the engine.
//   - Subscriptions are asynchronous and bounded. Publish performs a
//     non-blocking send into each subscription's buffer; a full buffer
//     drops the event and bumps the drop counters. A wedged socket or a
//     slow logger can therefore never stall the scheduler.
//
// Publish is safe for concurrent use.
// Install taps before traffic starts: Tap is safe to call concurrently
// with Publish, but events published before the tap landed are gone.
type Bus struct {
	seq     atomic.Uint64
	dropped atomic.Uint64

	// taps holds an immutable []func(Event); Tap replaces the slice
	// copy-on-write under tapMu so Publish reads it with one atomic load
	// and never takes a lock on the hot path.
	tapMu sync.Mutex
	taps  atomic.Value

	subMu sync.Mutex
	subs  map[*Subscription]struct{}
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Subscription]struct{})}
}

// Stats is a snapshot of the bus's fan-out health.
type Stats struct {
	Published   uint64 // events ever published
	Dropped     uint64 // events dropped across all subscriptions
	Subscribers int    // open subscriptions
	Taps        int    // installed taps
}

// Stats snapshots the counters.
func (b *Bus) Stats() Stats {
	taps, _ := b.taps.Load().([]func(Event))
	b.subMu.Lock()
	subs := len(b.subs)
	b.subMu.Unlock()
	return Stats{
		Published:   b.seq.Load(),
		Dropped:     b.dropped.Load(),
		Subscribers: subs,
		Taps:        len(taps),
	}
}

// Tap installs a synchronous, lossless observer (see the Bus contract).
// Taps cannot be removed; they live as long as the bus.
func (b *Bus) Tap(fn func(Event)) {
	b.tapMu.Lock()
	defer b.tapMu.Unlock()
	old, _ := b.taps.Load().([]func(Event))
	next := make([]func(Event), len(old)+1)
	copy(next, old)
	next[len(old)] = fn
	b.taps.Store(next)
}

// Subscribe opens an asynchronous, bounded subscription. buffer is the
// channel depth (minimum 1); filter, when non-nil, is evaluated at
// publish time and events it rejects are skipped without counting as
// drops. Close the subscription to release it.
func (b *Bus) Subscribe(buffer int, filter func(Event) bool) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{bus: b, ch: make(chan Event, buffer), filter: filter}
	b.subMu.Lock()
	b.subs[s] = struct{}{}
	b.subMu.Unlock()
	return s
}

// Publish stamps ev's Seq and fans it out: taps synchronously, then a
// non-blocking send to every subscription. It never blocks. The stamped
// event is returned for publishers that need the sequence number.
func (b *Bus) Publish(ev Event) Event {
	ev.Seq = b.seq.Add(1)
	if taps, _ := b.taps.Load().([]func(Event)); len(taps) > 0 {
		for _, fn := range taps {
			fn(ev)
		}
	}
	b.subMu.Lock()
	for s := range b.subs {
		s.offer(ev)
	}
	b.subMu.Unlock()
	return ev
}

// Subscription is one bounded, asynchronous event consumer. Read events
// from C; when the buffer overflows, events are dropped (counted by
// Dropped) rather than blocking the publisher.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	filter  func(Event) bool
	dropped atomic.Uint64

	mu     sync.Mutex // serializes offer vs Close so no send hits a closed channel
	closed bool
}

// C is the event stream. It is closed by Close; a range over it
// terminates when the subscription does.
func (s *Subscription) C() <-chan Event { return s.ch }

// Dropped reports how many events this subscription lost to a full
// buffer since it was opened.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// offer delivers ev without blocking; called by the bus with subMu held.
func (s *Subscription) offer(ev Event) {
	if s.filter != nil && !s.filter(ev) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		s.bus.dropped.Add(1)
	}
}

// Close detaches the subscription from the bus and closes C. It is
// idempotent and safe to call concurrently with Publish: an in-flight
// offer either lands before the close or is discarded, never sent on a
// closed channel.
func (s *Subscription) Close() {
	s.bus.subMu.Lock()
	delete(s.bus.subs, s)
	s.bus.subMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// Package sched is the scheduler pattern: After only queues its handler,
// which Run later calls through the queued event's field with no lock
// held, so a handler scheduled under a lock does not run under it. Now
// calls its handler at once, so one handed to it under a lock does.
package sched

import "sync"

type event struct{ fn func() }

// Loop queues handlers.
type Loop struct{ queue []*event }

// After queues fn; it never calls it.
func (l *Loop) After(fn func()) {
	if fn == nil {
		panic("sched: nil handler")
	}
	l.queue = append(l.queue, &event{fn: fn})
}

// Now calls fn at once.
func Now(fn func()) { fn() }

// Run calls every queued handler.
func (l *Loop) Run() {
	for _, ev := range l.queue {
		ev.fn()
	}
}

// Host hands its loop handlers that send on ch, under mu.
type Host struct {
	mu   sync.Mutex
	loop Loop
	ch   chan int
}

// Kick schedules a send under mu: it runs later, from Run.
func (h *Host) Kick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.loop.After(h.sendLater)
}

// Poke sends under mu.
func (h *Host) Poke() {
	h.mu.Lock()
	defer h.mu.Unlock()
	Now(h.sendNow)
}

func (h *Host) sendLater() { h.ch <- 1 }

func (h *Host) sendNow() { h.ch <- 2 }

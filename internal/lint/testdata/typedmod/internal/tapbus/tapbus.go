// Package tapbus is the handed-in func pattern for lockorder: Tap keeps
// observers in a slice and Publish calls them through a range variable
// while holding the bus lock, so the observer's lock is taken under it.
// A filter of another func type, handed to the same type, must not be
// mistaken for an observer.
package tapbus

import "sync"

// Bus fans values out to its observers under mu.
type Bus struct {
	mu     sync.Mutex
	taps   []func(int)
	filter func(int) bool
}

// Tap installs an observer.
func (b *Bus) Tap(fn func(int)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.taps = append(b.taps, fn)
}

// Filter installs a predicate Publish never calls under mu.
func (b *Bus) Filter(fn func(int) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.filter = fn
}

// Publish calls every observer with mu held: the Bus.mu → Counter.mu
// edge, found only by resolving fn to Counter.Observe.
func (b *Bus) Publish(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fn := range b.taps {
		fn(v)
	}
}

// Counter is an observer with a lock of its own.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Observe counts one value.
func (c *Counter) Observe(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += v
}

// Gate is a predicate with a lock of its own: no edge from Bus.mu.
type Gate struct {
	mu   sync.Mutex
	open bool
}

// Allow reports whether the gate is open.
func (g *Gate) Allow(int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.open
}

// Wire connects a counter and a gate to a bus.
func Wire(b *Bus, c *Counter, g *Gate) {
	b.Tap(c.Observe)
	b.Filter(g.Allow)
}

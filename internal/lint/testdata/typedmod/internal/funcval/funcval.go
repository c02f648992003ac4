// Package funcval is the call graph's func-value propagation: a closure
// held in a local and called by a plain helper (a), an observer handed
// through a setter kept in a positional struct literal and stored in a
// sync/atomic.Value (b), and a func a store-only API converts and keeps
// for a later, lock-free caller (c). (a) and (b) run under a lock; (c)
// does not.
package funcval

import (
	"io"
	"sync"
	"sync/atomic"
)

// (a) Log writes its lines under mu through a closure.
type Log struct {
	mu    sync.Mutex
	w     io.Writer
	lines []string
}

// Flush holds mu while each calls emit, so the write blocks under it.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	emit := func(s string) error {
		_, err := io.WriteString(l.w, s)
		return err
	}
	return each(l.lines, emit)
}

func each(lines []string, fn func(string) error) error {
	for _, s := range lines {
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// (b) Store calls its observer under mu.
type Store struct {
	mu  sync.Mutex
	obs atomic.Value // func(int)
	n   int
}

// SetObserver installs fn.
func (s *Store) SetObserver(fn func(int)) { s.obs.Store(fn) }

// Add counts v and reports the total to the observer, under mu.
func (s *Store) Add(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n += v
	if obs, _ := s.obs.Load().(func(int)); obs != nil {
		obs(s.n)
	}
}

// Len reads the total under mu.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Gauge observes a store: Observe runs under Store.mu and takes
// Gauge.mu; Sync takes Store.mu under Gauge.mu. A cycle.
type Gauge struct {
	mu    sync.Mutex
	last  int
	store *Store
}

// Observe records v.
func (g *Gauge) Observe(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.last = v
}

// Sync rereads the store's total under mu.
func (g *Gauge) Sync() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.last = g.store.Len()
}

type setter struct {
	name string
	set  func(func(int))
}

// Wire installs g as s's observer through a table of setters.
func Wire(s *Store, g *Gauge) {
	for _, st := range []setter{{"store", s.SetObserver}} {
		st.set(g.Observe)
	}
}

// (c) Probe is a reading a Probes set keeps.
type Probe func() int

type entry struct {
	name  string
	probe Probe
}

// Probes keeps readings; Add only stores them. Its owner serializes
// access.
type Probes struct{ entries []entry }

// Add keeps fn as the named probe.
func (p *Probes) Add(name string, fn func() int) {
	p.entries = append(p.entries, entry{name: name, probe: Probe(fn)})
}

// Sum calls every probe.
func (p *Probes) Sum() int {
	sum := 0
	for _, e := range p.entries {
		sum += e.probe()
	}
	return sum
}

// Host registers a probe that receives from ch, under mu.
type Host struct {
	mu     sync.Mutex
	ch     chan int
	probes Probes
}

// Start registers the probe under mu; the receive does not run here.
func (h *Host) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probes.Add("depth", func() int { return <-h.ch })
}

// Scrape sums the probes with no lock held.
func (h *Host) Scrape() int {
	h.mu.Lock()
	probes := h.probes
	h.mu.Unlock()
	return probes.Sum()
}

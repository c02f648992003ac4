// Package federation implements REACT's multi-server deployment (§III.A):
// the geographic area is decomposed into non-overlapping regions, each
// owned by one REACT server that matches only the tasks and workers located
// inside it — "this approach reduces the size of the matching problem
// without affecting the output". The Coordinator only says which server
// that is: it resolves a location (lazily starting one core.Server per
// active region) or a task id to its region server, and lists the running
// ones. It forwards nothing — callers (internal/wire's transport) talk to
// the *core.Server they were handed, so a region behind a coordinator
// behaves exactly like a lone one. It is the programmatic form of what
// examples/overload demonstrates numerically: when one server can no longer
// sustain the assignment rate, run more servers on smaller regions.
package federation

import (
	"sort"
	"sync"

	"react/internal/core"
	"react/internal/region"
)

// ServerFactory builds the region server for a region ID. Factories let
// deployments vary configuration per region (e.g. larger cycle budgets for
// denser regions).
type ServerFactory func(regionID string) *core.Server

// Coordinator resolves locations and tasks to per-region servers. It keeps
// no routing tables of its own: a worker's route is the connection that
// registered it, a task's route is the region server whose store holds it.
// Safe for concurrent use.
type Coordinator struct {
	grid    *region.Grid
	factory ServerFactory

	mu      sync.Mutex
	servers map[string]*core.Server
	stopped bool
}

// New creates a coordinator over the given static decomposition.
func New(grid *region.Grid, factory ServerFactory) *Coordinator {
	return &Coordinator{
		grid:    grid,
		factory: factory,
		servers: make(map[string]*core.Server),
	}
}

// At returns the server owning loc's region, starting it on first use.
// After Stop it returns core.ErrStopped.
func (c *Coordinator) At(loc region.Point) (*core.Server, error) {
	regionID := c.grid.Locate(loc)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil, core.ErrStopped
	}
	s, ok := c.servers[regionID]
	if !ok {
		s = c.factory(regionID)
		s.Start()
		c.servers[regionID] = s
	}
	return s, nil
}

// OfTask returns the running region server whose task store holds taskID,
// asking each in region-id order; ok is false when none does (never
// submitted, or forgotten past its region's retention window).
func (c *Coordinator) OfTask(taskID string) (*core.Server, bool) {
	for _, r := range c.Regions() {
		if _, ok := r.Server.Tasks().Get(taskID); ok {
			return r.Server, true
		}
	}
	return nil, false
}

// Regions lists the running region servers, sorted by region id.
func (c *Coordinator) Regions() []core.Region {
	c.mu.Lock()
	out := make([]core.Region, 0, len(c.servers))
	for id, s := range c.servers {
		out = append(out, core.Region{ID: id, Server: s})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stop shuts down every region server and refuses to start new ones.
// Idempotent.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	// Regions() is stable from here: At adds nothing once stopped, and
	// core.Server.Stop is itself idempotent.
	for _, r := range c.Regions() {
		r.Server.Stop()
	}
}

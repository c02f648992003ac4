// Package profile is REACT's Profiling Component (§III.A/B): per-worker
// records of location, availability, per-category feedback accuracy, and the
// completion-time history that feeds the power-law execution model of
// §IV.B. The Scheduling Component reads worker quality (Eq. 1) and deadline
// probabilities from here when constructing the bipartite graph; the
// Dynamic Assignment Component reads the fitted model when deciding
// reassignment.
package profile

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"react/internal/event"
	"react/internal/powerlaw"
	"react/internal/region"
)

// DefaultMinHistory is the paper's training threshold: the probabilistic
// model only activates once a worker has at least this many completed tasks
// ("the reassignment of the tasks based on the probabilistic model needs at
// least 3 completed tasks in the worker's profile", §V.C).
const DefaultMinHistory = 3

// Errors reported by the registry.
var (
	ErrDuplicateWorker = errors.New("profile: duplicate worker id")
	ErrUnknownWorker   = errors.New("profile: unknown worker id")
)

// categoryStats tracks Eq. 1's numerator and denominator for one task
// category.
type categoryStats struct {
	positive int
	finished int
}

// Profile is one worker's record. All methods are safe for concurrent use.
type Profile struct {
	id string

	mu         sync.Mutex
	location   region.Point
	available  bool
	busyTask   string // task currently assigned ("" when idle)
	categories map[string]*categoryStats
	positive   int // totals across categories
	finished   int
	fitter     powerlaw.Fitter
	// accuracy is Eq. 1 by category as the last View read it, shared with
	// every View taken since and never written: a grade drops it (nil) and
	// the next View builds a fresh one.
	accuracy []categoryAccuracy
	// connected is the owning registry's count of available profiles; every
	// flip of available moves it (setAvailable). Nil once deregistered.
	connected *atomic.Int64
}

// ID returns the worker's identifier.
func (p *Profile) ID() string { return p.id }

// Location reports the last registered geographical location.
func (p *Profile) Location() region.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.location
}

// SetLocation updates the worker's location (mobile workers move).
func (p *Profile) SetLocation(loc region.Point) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.location = loc
}

// Available reports whether the worker is connected and idle — i.e. a
// vertex the Scheduling Component should put in U.
func (p *Profile) Available() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.available && p.busyTask == ""
}

// Connected reports the raw connectivity flag: true for a worker that is
// attached, whether idle or mid-task. Compare Available, which also
// requires the worker to be idle.
func (p *Profile) Connected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.available
}

// SetAvailable flips the worker's connectivity status. Workers with short
// connectivity cycles toggle this as they come and go.
func (p *Profile) SetAvailable(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setAvailable(v)
}

// setAvailable is the one place available changes, so the registry's
// connected count moves with it. Callers hold p.mu.
func (p *Profile) setAvailable(v bool) {
	if p.available == v {
		return
	}
	p.available = v
	if p.connected == nil {
		return
	}
	if v {
		p.connected.Add(1)
	} else {
		p.connected.Add(-1)
	}
}

// CurrentTask reports the task the worker is executing ("" when idle). A
// busy worker is excluded from matching (one task at a time, §III.C). Only
// Registry.Observe moves it, from the task store's events.
func (p *Profile) CurrentTask() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busyTask
}

// RecordCompletion stores one finished task: its category, the execution
// time in seconds (ExecTime_ij), and the requester's feedback — the two
// phases, RecordExecTime and RecordFeedback, in one call.
func (p *Profile) RecordCompletion(category string, execSeconds float64, positiveFeedback bool) {
	p.RecordExecTime(execSeconds)
	p.RecordFeedback(category, positiveFeedback)
}

// RecordExecTime stores only the completion-time sample, for deployments
// where requester feedback arrives later (or never): the execution model
// must not starve while accuracy waits. Non-positive samples are ignored.
func (p *Profile) RecordExecTime(execSeconds float64) {
	if execSeconds <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fitter.Add(execSeconds)
}

// RecordFeedback stores only the requester's verdict for a finished task in
// the given category, completing the two-phase form of RecordCompletion.
func (p *Profile) RecordFeedback(category string, positive bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.categories == nil {
		p.categories = make(map[string]*categoryStats)
	}
	cs := p.categories[category]
	if cs == nil {
		cs = &categoryStats{}
		p.categories[category] = cs
	}
	cs.finished++
	p.finished++
	p.accuracy = nil
	if positive {
		cs.positive++
		p.positive++
	}
}

// Accuracy is View.Accuracy on a fresh view: Eq. 1 for one category now.
func (p *Profile) Accuracy(category string) (acc float64, ok bool) {
	v := p.View(0)
	return v.Accuracy(category)
}

// OverallAccuracy is View.OverallAccuracy on a fresh view.
func (p *Profile) OverallAccuracy() (acc float64, ok bool) {
	v := p.View(0)
	return v.OverallAccuracy()
}

// Finished reports the worker's total completed tasks.
func (p *Profile) Finished() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished
}

// Trainee reports whether the worker is still in the training phase: fewer
// than z completed tasks. The scheduler gives trainees edges to every task
// at maximum weight so their profile gets built (§IV.A).
func (p *Profile) Trainee(z int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished < z
}

// Model returns the fitted power-law execution-time model, requiring at
// least minHistory positive samples. minHistory below 1 uses
// DefaultMinHistory.
func (p *Profile) Model(minHistory int) (powerlaw.Model, bool) {
	if minHistory < 1 {
		minHistory = DefaultMinHistory
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.model(minHistory)
}

// model is Model with p.mu held and minHistory already defaulted.
func (p *Profile) model(minHistory int) (powerlaw.Model, bool) {
	if p.fitter.N() < minHistory {
		return powerlaw.Model{}, false
	}
	m, err := p.fitter.Model()
	if err != nil {
		return powerlaw.Model{}, false
	}
	return m, true
}

// View is one worker as a scheduling round reads it: every fact graph
// construction and the weight functions use, copied under one hold of the
// profile's lock. A round takes one View per idle worker, so it pays one
// lock per worker instead of one or two per surviving edge, and a grade
// landing mid-round reaches the worker's whole row or none of it. A View
// never changes once taken.
type View struct {
	ID       string
	Location region.Point
	Finished int            // graded tasks: the count the training rule reads
	Model    powerlaw.Model // the fitted execution-time model, when HasModel
	HasModel bool           // at least minHistory positive samples (see Model)
	positive int
	accuracy []categoryAccuracy // the profile's shared table; read only
}

// categoryAccuracy is one entry of a View's Eq. 1 table. The table is a
// slice, not a map: a worker is graded in the handful of categories a
// deployment defines, and a linear scan of those beats hashing the task's
// category on every surviving edge.
type categoryAccuracy struct {
	category string
	acc      float64
}

// View snapshots the worker for one scheduling round. minHistory is
// Model's: below 1 it uses DefaultMinHistory. It allocates only when a
// grade has landed since the last View, to rebuild the accuracy table.
func (p *Profile) View(minHistory int) View {
	if minHistory < 1 {
		minHistory = DefaultMinHistory
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.accuracy == nil && len(p.categories) > 0 {
		p.accuracy = make([]categoryAccuracy, 0, len(p.categories))
		for cat, cs := range p.categories {
			if cs.finished > 0 {
				p.accuracy = append(p.accuracy, categoryAccuracy{cat, float64(cs.positive) / float64(cs.finished)})
			}
		}
	}
	v := View{ID: p.id, Location: p.location, Finished: p.finished, positive: p.positive, accuracy: p.accuracy}
	v.Model, v.HasModel = p.model(minHistory)
	return v
}

// Trainee is Profile.Trainee as of the view.
func (v *View) Trainee(z int) bool { return v.Finished < z }

// Accuracy is Eq. 1 for one category as of the view:
// ΣPositiveTask/ΣFinishedTask. ok is false when the worker has no history
// in the category and the caller must fall back (trainee rule or overall
// accuracy).
func (v *View) Accuracy(category string) (acc float64, ok bool) {
	for _, e := range v.accuracy {
		if e.category == category {
			return e.acc, true
		}
	}
	return 0, false
}

// OverallAccuracy is Eq. 1 across categories as of the view.
func (v *View) OverallAccuracy() (acc float64, ok bool) {
	if v.Finished == 0 {
		return 0, false
	}
	return float64(v.positive) / float64(v.Finished), true
}

// FitSamples reports how many positive execution-time samples the
// power-law fitter holds — the quantity that says how far a worker is from
// the training threshold even while Model still returns false.
func (p *Profile) FitSamples() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fitter.N()
}

// Registry is the set of known workers, keyed by worker id. It is safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	workers map[string]*Profile
	// byID holds the same profiles sorted by id, kept in step by Register
	// and Deregister, so the per-round Available snapshot is a scan, not a
	// sort.
	byID []*Profile
	// connected counts the registered profiles whose available flag is set;
	// the profiles keep it current themselves (Profile.setAvailable).
	connected atomic.Int64

	// fleetMu guards fleet: one power law fitted to every completion Observe
	// has seen, from any worker, known or not. It is the fleet's service law
	// (FleetModel). No snapshot carries it, so a restarted server learns it
	// afresh.
	fleetMu sync.Mutex
	fleet   powerlaw.Fitter
}

// compareID orders Registry.byID against an id for binary search.
func compareID(p *Profile, id string) int { return strings.Compare(p.id, id) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{workers: make(map[string]*Profile)}
}

// Register adds a worker at a location, initially available.
func (r *Registry) Register(id string, loc region.Point) (*Profile, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.workers[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateWorker, id)
	}
	p := &Profile{id: id, location: loc, connected: &r.connected}
	p.setAvailable(true) // not shared yet: no lock needed
	r.workers[id] = p
	i, _ := slices.BinarySearchFunc(r.byID, id, compareID)
	r.byID = slices.Insert(r.byID, i, p)
	return p, nil
}

// Deregister removes a worker entirely (the worker abandoned the system).
// The profile history is lost, matching real marketplaces where a departed
// worker's record no longer helps scheduling.
func (r *Registry) Deregister(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.workers[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWorker, id)
	}
	delete(r.workers, id)
	if i, found := slices.BinarySearchFunc(r.byID, id, compareID); found {
		r.byID = slices.Delete(r.byID, i, i+1)
	}
	// The profile leaves the count and stops moving it: a holder of the
	// orphaned pointer can still flip its flag.
	p.mu.Lock()
	p.setAvailable(false)
	p.connected = nil
	p.mu.Unlock()
	return nil
}

// Get looks up a worker.
func (r *Registry) Get(id string) (*Profile, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.workers[id]
	return p, ok
}

// Size reports the number of registered workers.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.workers)
}

// CountConnected reports how many workers are currently connected (busy or
// idle) — the honest "workers online" figure, as opposed to Size, which
// counts every known profile including detached ones. It is one atomic
// load: admission reads it on every Decide.
func (r *Registry) CountConnected() int { return int(r.connected.Load()) }

// Available snapshots the workers currently available for assignment,
// sorted by id for deterministic graph construction.
func (r *Registry) Available() []*Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Profile, 0, len(r.byID))
	for _, p := range r.byID {
		if p.Available() {
			out = append(out, p)
		}
	}
	return out
}

// Observe is the profiling component's fold over the event spine. An
// assignment marks the worker busy on its task, and the revoke, completion
// or expiry of the task a worker holds frees it: occupancy has no other
// writer. A completion also feeds the fleet's pooled law and the answerer's
// power-law execution-time model, and a requester's grade the worker's
// Eq. 1 accuracy in the task's category. The live engine taps it and
// journal replay calls it, so a recovered profile has learned exactly what
// the live one did. An event for a worker the registry no longer knows
// reaches no profile: its history left with it. Its completion still
// counts toward the fleet.
//
// Occupancy is not durable. A replayed revoke names no holder (its record's
// worker is already cleared), so a registry rebuilt from the journal keeps
// busy marks the live one dropped; they die with it, because profiles
// reach a restarted engine only through the snapshot codec, which carries
// no occupancy.
//
// As a tap it runs under the task store's lock; it takes fleetMu, the
// registry's read lock and one profile's mutex, one at a time.
func (r *Registry) Observe(ev event.Event) {
	switch ev.Kind {
	case event.KindAssign:
		if p, ok := r.Get(ev.Worker); ok {
			p.hold(ev.Task)
		}
	case event.KindRevoke, event.KindExpire:
		if p, ok := r.Get(ev.Worker); ok {
			p.drop(ev.Task)
		}
	case event.KindComplete:
		exec := ev.Record.ExecTime().Seconds()
		if exec > 0 {
			r.fleetMu.Lock()
			r.fleet.Add(exec) // error impossible for positive finite input
			r.fleetMu.Unlock()
		}
		if p, ok := r.Get(ev.Worker); ok {
			p.RecordExecTime(exec)
			p.drop(ev.Task)
		}
	case event.KindFeedback:
		if p, ok := r.Get(ev.Worker); ok {
			p.RecordFeedback(ev.Record.Task.Category, ev.Positive)
		}
	}
}

// hold marks the worker busy on task.
func (p *Profile) hold(task string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busyTask = task
}

// drop frees the worker if task is the one it holds.
func (p *Profile) drop(task string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.busyTask == task {
		p.busyTask = ""
	}
}

// FleetModel reports the fleet's pooled execution-time law: how many
// completions it was fitted to and, once there is at least one, the fitted
// model (the zero Model before). The per-worker fits answer "can this
// worker finish in time"; this one answers "can some worker", which is
// what the admission plane asks.
func (r *Registry) FleetModel() (samples int, m powerlaw.Model) {
	r.fleetMu.Lock()
	defer r.fleetMu.Unlock()
	m, _ = r.fleet.Model() // fails only with no samples
	return r.fleet.N(), m
}

// All snapshots every registered worker, sorted by id.
func (r *Registry) All() []*Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(make([]*Profile, 0, len(r.byID)), r.byID...)
}

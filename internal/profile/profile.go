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
	"sort"
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
	rewardMin  float64 // reward-range extension (§III.C); 0,0 disables
	rewardMax  float64
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

// MarkBusy records that the worker started the given task; MarkIdle clears
// it. A busy worker is excluded from matching (one task at a time, §III.C).
func (p *Profile) MarkBusy(taskID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busyTask = taskID
}

// MarkIdle clears the current task.
func (p *Profile) MarkIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.busyTask = ""
}

// CurrentTask reports the task the worker is executing ("" when idle).
func (p *Profile) CurrentTask() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.busyTask
}

// SetRewardRange enables the reward-range extension: the scheduler will not
// instantiate edges to tasks whose reward falls outside [min, max]. A zero
// max disables the filter.
func (p *Profile) SetRewardRange(min, max float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rewardMin, p.rewardMax = min, max
}

// AcceptsReward reports whether a task reward passes the worker's range.
func (p *Profile) AcceptsReward(reward float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rewardMax <= 0 {
		return true
	}
	return reward >= p.rewardMin && reward <= p.rewardMax
}

// RecordCompletion stores one finished task: its category, the execution
// time in seconds (ExecTime_ij), and the requester's feedback. Non-positive
// execution times are recorded as accuracy data but skipped by the
// power-law fitter, which requires positive samples.
func (p *Profile) RecordCompletion(category string, execSeconds float64, positiveFeedback bool) {
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
	if positiveFeedback {
		cs.positive++
		p.positive++
	}
	if execSeconds > 0 {
		p.fitter.Add(execSeconds) // error impossible for positive finite input
	}
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
	if positive {
		cs.positive++
		p.positive++
	}
}

// Accuracy is Eq. 1 for one category: ΣPositiveTask/ΣFinishedTask. ok is
// false when the worker has no history in the category and the caller must
// fall back (trainee rule or overall accuracy).
func (p *Profile) Accuracy(category string) (acc float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.categories[category]
	if cs == nil || cs.finished == 0 {
		return 0, false
	}
	return float64(cs.positive) / float64(cs.finished), true
}

// OverallAccuracy aggregates Eq. 1 across categories.
func (p *Profile) OverallAccuracy() (acc float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished == 0 {
		return 0, false
	}
	return float64(p.positive) / float64(p.finished), true
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
	if p.fitter.N() < minHistory {
		return powerlaw.Model{}, false
	}
	m, err := p.fitter.Model()
	if err != nil {
		return powerlaw.Model{}, false
	}
	return m, true
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
	// connected counts the registered profiles whose available flag is set;
	// the profiles keep it current themselves (Profile.setAvailable).
	connected atomic.Int64
}

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
	out := make([]*Profile, 0, len(r.workers))
	for _, p := range r.workers {
		if p.Available() {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Observe is the profiling component's fold over the event spine: a
// completion feeds the answerer's power-law execution-time model, a
// requester's grade the worker's Eq. 1 accuracy in the task's category.
// The live engine taps it and journal replay calls it, so a recovered
// profile has learned exactly what the live one did. An event for a worker
// the registry no longer knows is dropped: its history left with it.
// As a tap it runs under the task's shard lock; it takes the registry's
// read lock and one profile's mutex, nothing else.
func (r *Registry) Observe(ev event.Event) {
	if ev.Kind != event.KindComplete && ev.Kind != event.KindFeedback {
		return
	}
	p, ok := r.Get(ev.Worker)
	if !ok {
		return
	}
	if ev.Kind == event.KindComplete {
		p.RecordExecTime(ev.Record.ExecTime().Seconds())
	} else {
		p.RecordFeedback(ev.Record.Task.Category, ev.Positive)
	}
}

// All snapshots every registered worker, sorted by id.
func (r *Registry) All() []*Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Profile, 0, len(r.workers))
	for _, p := range r.workers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

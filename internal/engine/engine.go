// Package engine is the transport-agnostic REACT scheduling engine: the
// paper's four components (profiling, task management, scheduling, dynamic
// assignment) wired into one control loop that owns every decision on a
// task's path — the admission gates in front of the store (SubmitFrom),
// the batch trigger, edge construction and WBGM invocation, assignment
// application, the Eq. 2 monitor (monitor.go), unassigned-task expiry,
// the overload shedder, and terminal-record retention.
//
// The engine has no goroutines, timers, or sockets of its own — it is
// driven entirely by explicit calls (SubmitFrom, Complete, Feedback,
// AttachWorker, DetachWorker, Tick, TickMonitor, TryBatch). That lets two
// very different hosts share it verbatim:
//
//   - internal/core runs it against a real clock, calling Tick and
//     TickMonitor from ticker goroutines and delivering assignments over
//     channels via the Deliver hook;
//   - internal/experiments schedules the same calls as discrete events on
//     sim.Engine's virtual clock, injecting the modelled matcher latency of
//     DESIGN.md §2 through Config.Latency/Config.Defer.
//
// The CI determinism gate (same-seed figure runs byte-identical, diffed
// against a pre-refactor golden series in testdata/) is the proof both
// drive modes execute one logic.
//
// Task bookkeeping is striped across Config.Shards taskq shards (see
// TaskStore), so completions, feedback and submissions arriving
// concurrently contend on one stripe's lock, not on a global one or on a
// running batch. The lifecycle counters are not the engine's: an
// event.Ledger folds them from the spine (see Stats). The maintenance
// ticks cost what is live or due — docs/ENGINE.md, "What a tick costs".
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/event"
	"react/internal/matching"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// Assignment is the notification a worker receives when the scheduler binds
// a task to them.
type Assignment struct {
	TaskID      string
	WorkerID    string
	Category    string
	Description string
	Location    region.Point
	Deadline    time.Time
	Reward      float64
	AssignedAt  time.Time // instant the binding was applied (staleness checks)
}

// Result is delivered to the requester side when a task terminates.
type Result struct {
	TaskID      string
	WorkerID    string // "" when the task expired unassigned
	Answer      string
	FinishedAt  time.Time
	MetDeadline bool
	Expired     bool
}

// Hooks is the engine's transport seam. Observation moved to the event
// spine (Events); the only hook left is the delivery path, which is
// load-bearing — its return value decides whether a binding sticks.
type Hooks struct {
	// Deliver hands a freshly applied assignment to the transport. Returning
	// false (worker unreachable, feed full) makes the engine revoke the
	// binding: the task returns to the pool and the worker is marked idle.
	// A nil Deliver accepts every assignment. Deliver is invoked with no
	// engine lock held and must not re-enter TryBatch.
	Deliver func(Assignment) bool
}

// Config parameterizes an Engine. Zero fields take the paper's defaults.
type Config struct {
	Clock    clock.Clock      // default clock.System{}
	Matcher  matching.Matcher // default REACT with adaptive cycles
	Schedule schedule.Config  // batching, pruning, weights
	Monitor  Monitor          // Eq. 2 reassignment policy
	// Shards stripes the task bookkeeping; default GOMAXPROCS. The stripe
	// count never changes observable behaviour (snapshots re-sort
	// globally), only lock contention.
	Shards int
	// Retention bounds how long terminal task records are kept for late
	// Feedback. Zero keeps everything.
	Retention time.Duration
	// Admission, when non-nil, puts the overload-protection plane
	// (internal/admission) in front of the store: SubmitFrom runs its
	// gates, Tick ends with its CoDel shedder, and its MaxInflight is also
	// the hard ceiling behind ErrQueueFull. The controller runs on the
	// engine's clock, registry and ledger; the config's Clock and Workers
	// are filled in from those when unset. Nil keeps the paper's
	// admit-everything intake.
	Admission *admission.Config
	// Latency models the matcher's wall time for one batch (the analytic
	// model of DESIGN.md §2). Nil charges nothing: the batch applies with
	// the real elapsed time already spent.
	Latency func(tasks, workers, edges, cycles int) time.Duration
	// Defer postpones batch application by the modelled latency. The
	// experiments harness points this at sim.Engine.After so the virtual
	// clock pays the charge; nil applies assignments synchronously (live
	// mode). Defer must only schedule fn, never run it inline.
	Defer func(d time.Duration, fn func(now time.Time))
}

func (c Config) normalize() Config {
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.Matcher == nil {
		c.Matcher = matching.REACT{Adaptive: true}
	}
	c.Schedule = c.Schedule.Normalize()
	c.Monitor = c.Monitor.Normalize()
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	return c
}

// Errors returned by the engine API.
var (
	// ErrNotAssigned rejects a Complete for a task the worker does not hold.
	ErrNotAssigned = errors.New("engine: task not assigned to this worker")
	// ErrNoWorker rejects Feedback for a task with no worker profile to
	// credit: the task expired unassigned, or its worker deregistered. The
	// grade is not consumed, so the requester learns it went nowhere
	// instead of silently losing the accuracy update.
	ErrNoWorker = errors.New("engine: no worker to credit feedback to")
	// ErrQueueFull rejects a Submit that would push the live task
	// population past Config.Admission.MaxInflight. Retryable: capacity
	// frees as tasks complete or expire.
	ErrQueueFull = errors.New("engine: queue full")
)

// Stats is a snapshot of the engine's counters. The embedded Tally —
// Received, Assigned, Completed, OnTime, Expired, Shed, Reassigned — is
// the ledger's: event.Ledger.Observe folds it from the spine, and journal
// replay runs the same fold, so it survives a recovery. Batches and
// MatcherTime count scheduling rounds, which are not journaled: those two
// restart from zero.
type Stats struct {
	event.Tally
	Batches     int64
	MatcherTime time.Duration
}

// Engine is one REACT scheduling engine instance.
type Engine struct {
	cfg     Config
	hooks   Hooks
	workers *profile.Registry
	tasks   *TaskStore
	bus     *event.Bus
	adm     *admission.Controller // nil unless Config.Admission is set

	// batchMu serializes the trigger check and the scheduling round
	// (planBatch). inFlight is set from the moment a round is planned
	// until its assignments are applied — immediately for synchronous
	// application, after the modelled latency for deferred — so rounds
	// never overlap even though hooks and application run unlocked.
	batchMu  sync.Mutex
	lastRun  time.Time // when the last round ran; the period half of the trigger
	inFlight bool

	ledger    event.Ledger // lifecycle counters; the bus's first tap
	batches   atomic.Int64
	matcherNs atomic.Int64
}

// New creates an engine. The first batch is considered due immediately
// (lastRun is backdated one period).
func New(cfg Config, hooks Hooks) *Engine {
	cfg = cfg.normalize()
	e := &Engine{
		cfg:     cfg,
		hooks:   hooks,
		workers: profile.NewRegistry(),
		tasks:   NewTaskStore(cfg.Clock, cfg.Shards),
		bus:     event.NewBus(),
		lastRun: cfg.Clock.Now().Add(-cfg.Schedule.BatchPeriod),
	}
	// The ledger taps first: every later consumer finds the counters moved.
	// The worker profiles learn from the same stream journal replay feeds
	// them, so completions and grades reach them one way only.
	e.bus.Tap(e.ledger.Observe)
	e.bus.Tap(e.workers.Observe)
	// Lifecycle events flow shard sink → spine bus. The sink fires under
	// the shard's lock, so the bus stamps Seq before any second mutation
	// of the same task can start — the per-task total order every spine
	// consumer relies on.
	e.tasks.setSink(func(tev taskq.Event) {
		e.bus.Publish(event.FromTask(tev))
	})
	if cfg.Admission != nil {
		acfg := *cfg.Admission
		if acfg.Clock == nil {
			acfg.Clock = cfg.Clock
		}
		if acfg.Workers == nil {
			acfg.Workers = e.workers.CountConnected
		}
		e.adm = admission.New(acfg)
		e.adm.Attach(&e.ledger)
		e.bus.Tap(e.adm.Tap)
	}
	return e
}

// Workers exposes the profiling component.
func (e *Engine) Workers() *profile.Registry { return e.workers }

// Tasks exposes the sharded task-management component.
func (e *Engine) Tasks() *TaskStore { return e.tasks }

// Events exposes the lifecycle event spine. Taps run under the shard
// locks (lossless, ordered); subscriptions are bounded and lossy. See
// the event package contract before choosing.
func (e *Engine) Events() *event.Bus { return e.bus }

// Ledger exposes the lifecycle counters and load gauges behind Stats —
// the same ledger the admission gates read.
func (e *Engine) Ledger() *event.Ledger { return &e.ledger }

// Admission exposes the overload-protection controller (nil when
// Config.Admission is unset) for observability wiring.
func (e *Engine) Admission() *admission.Controller { return e.adm }

// SubmitFrom places a task into the system on behalf of requester,
// running the admission gates first when the plane is enabled ("" is
// exempt from the per-requester rate limit but not from the ceiling or
// the probability floor). The decision is returned alongside the error so
// transports can surface the status and retry-after hint; on rejection
// the error is a typed *admission.RejectionError and the task reaches
// neither the store nor the spine.
func (e *Engine) SubmitFrom(requester string, t taskq.Task) (admission.Decision, error) {
	if e.adm == nil {
		return admission.Decision{Status: admission.StatusAdmitted}, e.Submit(t)
	}
	d := e.adm.Decide(requester, t)
	if !d.Admitted() {
		return d, d.Err()
	}
	return d, e.Submit(t)
}

// Submit places a task into the store past the gates — the path for a
// host without an admission plane. With one configured, its ceiling still
// holds here as a check-then-act backstop: a submission that would exceed
// MaxInflight fails with ErrQueueFull before touching the store.
func (e *Engine) Submit(t taskq.Task) error {
	if e.adm != nil {
		ceiling := int64(e.adm.Config().MaxInflight)
		if n := e.ledger.InFlight(); ceiling > 0 && n >= ceiling {
			return fmt.Errorf("%w: %d tasks in flight (ceiling %d)", ErrQueueFull, n, ceiling)
		}
	}
	return e.tasks.Submit(t)
}

// AttachWorker makes a worker available: a new id is registered at loc; a
// known one — detached earlier, or restored from the journal — comes back
// with its learned history, and moves to loc when loc is valid. Workers
// have "short connectivity cycles" (§I), so returning is the common case.
// Either way the attach is published on the spine.
func (e *Engine) AttachWorker(id string, loc region.Point) (*profile.Profile, error) {
	p, known := e.workers.Get(id)
	if !known {
		var err error
		if p, err = e.workers.Register(id, loc); err != nil {
			return nil, err
		}
	} else {
		if loc.Valid() {
			p.SetLocation(loc)
		}
		p.SetAvailable(true)
	}
	e.bus.Publish(event.Event{Kind: event.KindAttach, Worker: id, At: e.cfg.Clock.Now(), Loc: loc})
	return p, nil
}

// DetachWorker marks a worker unavailable, keeping its learned profile
// (workers have "short connectivity cycles", §I). Any task it held returns
// to the pool for reassignment.
func (e *Engine) DetachWorker(id string) error {
	p, ok := e.workers.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", profile.ErrUnknownWorker, id)
	}
	if taskID := p.CurrentTask(); taskID != "" {
		e.release(taskID, p, taskq.CauseDetach, 0)
	}
	p.SetAvailable(false)
	return nil
}

// DeregisterWorker removes a worker and its history entirely, and
// publishes the departure. Any task it held returns to the pool.
func (e *Engine) DeregisterWorker(id string) error {
	p, ok := e.workers.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", profile.ErrUnknownWorker, id)
	}
	if taskID := p.CurrentTask(); taskID != "" {
		e.release(taskID, p, taskq.CauseDeregister, 0)
	}
	if err := e.workers.Deregister(id); err != nil {
		return err
	}
	e.bus.Publish(event.Event{Kind: event.KindDeregister, Worker: id, At: e.cfg.Clock.Now()})
	return nil
}

// Complete records a worker's answer for a task it holds. The execution
// time feeds the worker's power-law model through the spine's complete
// event (profile.Registry.Observe); the accuracy update waits for
// requester Feedback. The final task record is returned alongside
// the requester-facing result for callers that need the full bookkeeping
// (attempts, timings). The holder is checked under the shard lock that
// finishes the task, so a revoked worker's late answer fails with
// ErrNotAssigned even if the task was rebound in the meantime.
func (e *Engine) Complete(taskID, workerID, answer string) (Result, taskq.Record, error) {
	final, err := e.tasks.shard(taskID).Complete(taskID, workerID)
	if errors.Is(err, taskq.ErrBadState) {
		return Result{}, taskq.Record{}, fmt.Errorf("%w: %v", ErrNotAssigned, err)
	}
	if err != nil {
		return Result{}, taskq.Record{}, err
	}
	if p, ok := e.workers.Get(workerID); ok {
		e.release(taskID, p, "", 0)
	}
	res := Result{
		TaskID:      taskID,
		WorkerID:    workerID,
		Answer:      answer,
		FinishedAt:  final.FinishedAt,
		MetDeadline: final.MetDeadline(),
	}
	return res, final, nil
}

// Feedback records the requester's verdict on a completed task and
// publishes it; the worker's per-category accuracy (Eq. 1) learns it from
// the spine. A task can be graded once. When the task has no worker to
// credit — it expired unassigned, or the worker deregistered — Feedback
// returns ErrNoWorker without consuming the grade.
func (e *Engine) Feedback(taskID string, positive bool) error {
	rec, ok := e.tasks.Get(taskID)
	if !ok {
		return fmt.Errorf("%w: %q", taskq.ErrUnknownTask, taskID)
	}
	if rec.Worker == "" {
		return fmt.Errorf("%w: task %q never reached a worker", ErrNoWorker, taskID)
	}
	if _, ok := e.workers.Get(rec.Worker); !ok {
		return fmt.Errorf("%w: worker %q left before feedback for task %q", ErrNoWorker, rec.Worker, taskID)
	}
	if err := e.tasks.MarkGraded(taskID); err != nil {
		return err
	}
	rec.Graded = true
	e.bus.Publish(event.Event{Kind: event.KindFeedback, Task: taskID, Worker: rec.Worker,
		At: e.cfg.Clock.Now(), Positive: positive, Record: rec})
	return nil
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	return Stats{Tally: e.ledger.Counts(), Batches: e.batches.Load(), MatcherTime: time.Duration(e.matcherNs.Load())}
}

// Tick runs one full maintenance pass — retention GC, unassigned-task
// expiry, the batch trigger, then the overload shedder — in the order the
// live server's poll loop needs: once the tick has expired what the clock
// already killed, CoDel decides whether the surviving backlog's queue
// delay warrants shedding more. Event-driven hosts call the individual
// ticks on their own cadences instead.
func (e *Engine) Tick() {
	e.TickRetention()
	e.TickExpiry()
	e.TryBatch()
	if e.adm != nil {
		e.adm.TickShed(e.tasks)
	}
}

// TickRetention garbage-collects terminal task records older than the
// retention window. A zero retention keeps everything.
func (e *Engine) TickRetention() {
	if e.cfg.Retention <= 0 {
		return
	}
	e.tasks.ForgetTerminatedBefore(e.cfg.Clock.Now().Add(-e.cfg.Retention))
}

// TickExpiry expires every overdue task still waiting in the pool. Each
// expiry lands on the event spine as a KindExpire event. Tasks already
// in a worker's hands run to (possibly late) completion — the paper's
// soft-deadline policy.
func (e *Engine) TickExpiry() { e.tasks.ExpireUnassigned() }

// ExpireAllDue expires every overdue task, assigned or not — the
// end-of-run accounting sweep the experiments harness performs after the
// drain window.
func (e *Engine) ExpireAllDue() { e.tasks.ExpireDue() }

// TickMonitor runs one Eq. 2 sweep: every executing task whose completion
// probability fell below the threshold is returned to the pool and its
// worker freed.
func (e *Engine) TickMonitor() {
	now := e.cfg.Clock.Now()
	for _, d := range e.cfg.Monitor.Sweep(e.workers, e.tasks, now) {
		if d.Reassign {
			p, _ := e.workers.Get(d.Worker) // nil when the worker departed
			e.release(d.TaskID, p, taskq.CauseEq2, d.Probability)
		}
	}
}

// release ends worker p's hold on a task — the one place a binding is
// undone. With a cause the task first returns to the pool as a revocation
// (which fails only if it just went terminal or another path already
// revoked it); with none it has just completed in the worker's hands.
// The idle mark is guarded, so of two releases racing — a detach, a
// deregister, a refused delivery, a late Complete — the second is a
// no-op. p is nil when the worker left the registry.
func (e *Engine) release(taskID string, p *profile.Profile, cause string, prob float64) {
	if cause != "" {
		e.tasks.Unassign(taskID, cause, prob)
	}
	if p != nil && p.CurrentTask() == taskID {
		p.MarkIdle()
	}
}

// binding is one matcher proposal: give taskID to workerID.
type binding struct{ taskID, workerID string }

// round is one planned scheduling round: the matcher's proposals in apply
// order (sorted by task id — the harness's exec-time RNG stream depends on
// it) and the summary published on the spine. stats.Latency is the
// modelled charge a deferred apply waits out.
type round struct {
	bindings []binding
	stats    event.BatchStats
}

// TryBatch runs one scheduling round if the trigger is due: snapshot the
// available workers and unassigned tasks, build the Eq. 3 graph, match it,
// and apply the assignments. With Config.Defer set, application is
// postponed by the modelled matcher latency and at most one round is in
// flight at a time; the deferred apply re-arms the trigger check so a
// backlog that built up during the charge drains immediately.
func (e *Engine) TryBatch() {
	r := e.planBatch()
	if r == nil {
		return
	}
	// The round summary publishes with no engine lock held: a tap is free
	// to call back into the engine (Complete, Feedback, even TryBatch —
	// the inFlight gate makes that a no-op) without deadlocking, and a
	// slow subscriber can never stall the trigger check. reactlint's
	// hookreentrancy analyzer enforces this.
	e.bus.Publish(event.Event{Kind: event.KindBatch, At: e.cfg.Clock.Now(), Batch: &r.stats})
	if e.cfg.Defer != nil {
		// Land the postponed round, then re-check the trigger for backlog
		// that accumulated while the modelled matcher ran.
		e.cfg.Defer(r.stats.Latency, func(time.Time) {
			e.finishRound(r.bindings)
			e.TryBatch()
		})
		return
	}
	e.finishRound(r.bindings)
}

// planBatch is the locked half of TryBatch — trigger → prune (Eq. 3) →
// match, all under batchMu. A round is never due with nothing unassigned;
// otherwise it is due once the backlog exceeds BatchBound or a
// BatchPeriod has passed since the last one (§IV.A). When a round is
// produced, inFlight is set before the lock is released so concurrent
// TryBatch calls stay no-ops until the round is applied; nil means no
// round ran.
func (e *Engine) planBatch() *round {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	if e.inFlight {
		return nil
	}
	now := e.cfg.Clock.Now()
	sc := e.cfg.Schedule
	n := e.tasks.UnassignedCount()
	if n == 0 || (n <= sc.BatchBound && now.Before(e.lastRun.Add(sc.BatchPeriod))) {
		return nil
	}
	avail := e.workers.Available()
	unassigned := e.tasks.Unassigned()
	if len(avail) == 0 || len(unassigned) == 0 {
		return nil
	}
	g, build := schedule.BuildGraph(sc, avail, unassigned, now)
	if g == nil {
		return nil // construction bug; skip the round rather than wedge the host
	}
	//lint:ignore clockdiscipline,clocktaint Elapsed reports the matcher's real wall time (Fig. 3/8 accounting), not simulated time; it never feeds a scheduling decision
	start := time.Now()
	match, ms := e.cfg.Matcher.Match(g)
	//lint:ignore clockdiscipline,clocktaint see above: a real measurement by design
	elapsed := time.Since(start)
	e.lastRun = now
	e.batches.Add(1)
	e.matcherNs.Add(int64(elapsed))

	pairs := match.Pairs()
	r := &round{
		bindings: make([]binding, len(pairs)),
		stats: event.BatchStats{
			Workers:      len(avail),
			Tasks:        len(unassigned),
			Edges:        build.Edges,
			PrunedProb:   build.PrunedProb,
			PrunedReward: build.PrunedReward,
			Cycles:       ms.Cycles,
			Assignments:  len(pairs),
			Elapsed:      elapsed,
		},
	}
	if e.cfg.Latency != nil {
		r.stats.Latency = e.cfg.Latency(len(unassigned), len(avail), build.Edges, ms.Cycles)
	}
	for i, p := range pairs {
		r.bindings[i] = binding{taskID: g.TaskID(p.Task), workerID: g.WorkerID(p.Worker)}
	}
	sort.Slice(r.bindings, func(i, j int) bool { return r.bindings[i].taskID < r.bindings[j].taskID })
	e.inFlight = true
	return r
}

// finishRound applies a planned round and reopens the in-flight gate.
func (e *Engine) finishRound(bindings []binding) {
	e.applyAssignments(bindings)
	e.batchMu.Lock()
	e.inFlight = false
	e.batchMu.Unlock()
}

// applyAssignments binds matcher output to live state. Runs with no
// engine lock held — the inFlight gate serializes rounds, and the task
// and worker stores carry their own locks — so the Deliver hook may
// re-enter the engine freely.
func (e *Engine) applyAssignments(bindings []binding) {
	for _, b := range bindings {
		p, ok := e.workers.Get(b.workerID)
		if !ok || !p.Available() {
			continue // worker detached after the snapshot
		}
		if err := e.tasks.Assign(b.taskID, b.workerID); err != nil {
			continue // expired or re-bound while the matcher ran
		}
		rec, _ := e.tasks.Get(b.taskID)
		t := rec.Task
		a := Assignment{
			TaskID:      b.taskID,
			WorkerID:    b.workerID,
			Category:    t.Category,
			Description: t.Description,
			Location:    t.Location,
			Deadline:    t.Deadline,
			Reward:      t.Reward,
			AssignedAt:  rec.AssignedAt,
		}
		// Mark busy BEFORE the assignment becomes visible to the transport:
		// a fast worker may Complete the task (and clear the busy mark)
		// before this call returns, and marking busy afterwards would wedge
		// the worker permanently.
		p.MarkBusy(b.taskID)
		if e.hooks.Deliver != nil && !e.hooks.Deliver(a) {
			// Transport refused (feed full, worker detached mid-delivery):
			// revoke, which uncounts the assignment.
			e.release(b.taskID, p, taskq.CauseUndeliverable, 0)
		}
	}
}

// Package engine is the transport-agnostic REACT scheduling engine: the
// paper's four components (profiling, task management, scheduling, dynamic
// assignment) wired into one control loop that owns every decision on a
// task's path — the admission gates in front of the store (SubmitFrom),
// the batch trigger, edge construction and WBGM invocation, assignment
// application, the Eq. 2 monitor (monitor.go), unassigned-task expiry,
// the overload shedder, and terminal-record retention.
//
// Every decision runs inside an explicit call (SubmitFrom, Complete,
// Feedback, AttachWorker, DetachWorker, Tick, TickMonitor, TryBatch); the
// engine owns no sockets, and Start (live.go) is the one way a host paces
// the calls, so two very different hosts run one sequence:
//
//   - internal/wire runs one engine per region against a real clock: Start
//     launches two tickers, and its Deliver hook writes each assignment
//     straight into the worker's connection;
//   - internal/experiments sets Config.Defer to sim.Engine.After, so Start
//     arms the same ticks as events on the virtual clock, which also pays
//     the modelled matcher latency of DESIGN.md §2 (Config.Latency).
//
// The CI determinism gate (same-seed figure runs byte-identical, diffed
// against golden series in testdata/) pins what the simulation decides.
//
// Task bookkeeping is one registry under one lock (see TaskStore). The
// lifecycle counters are not the engine's: an event.Ledger folds them
// from the spine (see Stats). The maintenance ticks cost what is live or
// due — docs/ENGINE.md, "What a tick costs".
package engine

import (
	"errors"
	"fmt"
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

// Hooks is the engine's transport seam. Observation moved to the event
// spine (Events); the only hook left is the delivery path, which is
// load-bearing — its return value decides whether a binding sticks.
type Hooks struct {
	// Deliver hands the record of a freshly applied binding — its Task,
	// Worker and AssignedAt — to the transport. Returning false (no route
	// to the worker, or its connection has failed) makes the engine revoke
	// the binding: the task returns to the pool and the worker is marked
	// idle.
	// A nil Deliver accepts every assignment. Deliver is invoked with no
	// engine lock held and must not re-enter TryBatch.
	Deliver func(taskq.Record) bool
}

// Config parameterizes an Engine. Zero fields take the paper's defaults.
type Config struct {
	Clock    clock.Clock      // default clock.System{}
	Matcher  matching.Matcher // default REACT with adaptive cycles
	Schedule schedule.Config  // batching, pruning, weights
	Monitor  Monitor          // Eq. 2 reassignment policy
	// Shards is read by no code. It is kept only so that the benchmark
	// module, which names it, still compiles (ROADMAP item 8): the task
	// store is one registry under one lock.
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
	// Defer, when set, paces every engine timer on the host's clock: Start
	// arms Tick, TickMonitor and each kicked round through it, and a round
	// applies after its modelled latency through it (the experiments point
	// it at sim.Engine.After). Nil is the live mode: wall-clock loops, and
	// rounds apply synchronously. Defer must only schedule fn, never run it.
	Defer func(d time.Duration, fn func(now time.Time))
	// BatchPoll and MonitorPeriod pace what Start runs: Tick every
	// BatchPoll (default 200ms), TickMonitor every MonitorPeriod (default
	// 1s), on the wall clock or through Defer.
	BatchPoll     time.Duration
	MonitorPeriod time.Duration
	// QueueDepth is read by no code. It is kept only so that the benchmark
	// module's core.Options literal, which names it, still compiles:
	// assignments go straight into the worker's connection, and a busy
	// worker is offered nothing until its task is released.
	QueueDepth int
}

func (c Config) normalize() Config {
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.BatchPoll <= 0 {
		c.BatchPoll = 200 * time.Millisecond
	}
	if c.MonitorPeriod <= 0 {
		c.MonitorPeriod = time.Second
	}
	if c.Matcher == nil {
		c.Matcher = matching.REACT{Adaptive: true}
	}
	c.Schedule = c.Schedule.Normalize()
	c.Monitor = c.Monitor.Normalize()
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

	// What Start runs (live.go): stop ends the live loops, loops waits for
	// them, driven is set while a Defer-paced engine runs, and wake (one
	// slot) asks for a round the moment the backlog half of the trigger
	// holds (kick).
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
	driven   atomic.Bool
	wake     chan struct{}
}

// New creates an engine. The first batch is considered due immediately
// (lastRun is backdated one period).
func New(cfg Config, hooks Hooks) *Engine {
	cfg = cfg.normalize()
	bus := event.NewBus()
	e := &Engine{
		cfg:     cfg,
		hooks:   hooks,
		workers: profile.NewRegistry(),
		tasks:   newTaskStore(cfg.Clock, bus),
		bus:     bus,
		lastRun: cfg.Clock.Now().Add(-cfg.Schedule.BatchPeriod),
		stop:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
	}
	// The ledger taps first: every later consumer finds the counters moved.
	// The worker profiles and the fleet's pooled law learn from the same
	// stream journal replay feeds them, so completions and grades reach
	// them one way only. The admission plane taps nothing: it reads the
	// engine's clock, ledger and registry.
	e.bus.Tap(e.ledger.Observe)
	e.bus.Tap(e.workers.Observe)
	if cfg.Admission != nil {
		e.adm = admission.New(*cfg.Admission)
		e.adm.Attach(cfg.Clock, &e.ledger, e.workers)
	}
	return e
}

// Workers exposes the profiling component.
func (e *Engine) Workers() *profile.Registry { return e.workers }

// Tasks exposes the task-management component.
func (e *Engine) Tasks() *TaskStore { return e.tasks }

// Events exposes the lifecycle event spine. Taps run under the store
// lock (lossless, ordered); subscriptions are bounded and lossy. See
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
	if err := e.tasks.Submit(t); err != nil {
		return err
	}
	e.kick()
	return nil
}

// kick asks for a round when the backlog half of the §IV.A trigger holds —
// more than BatchBound tasks unassigned — read off the ledger's gauge, one
// atomic load. It never blocks: the wake channel has one slot, so kicks
// that land while a round runs coalesce into the one after it. The batch
// loop reads the slot; on a Defer-driven engine the kick that fills it
// arms the round as Defer(0, …). The period half stays on the BatchPoll
// tick. An engine not started leaves its kicks unread.
func (e *Engine) kick() {
	if e.ledger.Unassigned() <= int64(e.cfg.Schedule.BatchBound) {
		return
	}
	select {
	case e.wake <- struct{}{}:
		if e.driven.Load() {
			e.cfg.Defer(0, e.wakeRound)
		}
	default:
	}
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
	e.kick()
	return p, nil
}

// SetAvailable records whether an attached worker is willing to take work,
// without detaching it: a task it holds stays in its hands either way.
// Becoming willing kicks the batch loop, as an attach does, so a backlog
// over BatchBound does not wait for the next poll.
func (e *Engine) SetAvailable(id string, willing bool) error {
	p, ok := e.workers.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", profile.ErrUnknownWorker, id)
	}
	p.SetAvailable(willing)
	if willing {
		e.kick()
	}
	return nil
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
		e.release(taskID, id, taskq.CauseDetach, 0)
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
		e.release(taskID, id, taskq.CauseDeregister, 0)
	}
	if err := e.workers.Deregister(id); err != nil {
		return err
	}
	e.bus.Publish(event.Event{Kind: event.KindDeregister, Worker: id, At: e.cfg.Clock.Now()})
	return nil
}

// Complete records that a worker finished a task it holds and returns the
// final record (attempts, timings; MetDeadline says whether it beat the
// deadline). The spine's complete event frees the worker and feeds its
// power-law model (profile.Registry.Observe); the accuracy update waits
// for requester Feedback. The holder is checked under the store lock that
// finishes the task, so a revoked worker's late answer fails with
// ErrNotAssigned even if the task was rebound in the meantime.
func (e *Engine) Complete(taskID, workerID string) (taskq.Record, error) {
	final, err := e.tasks.complete(taskID, workerID)
	if errors.Is(err, taskq.ErrBadState) {
		return taskq.Record{}, fmt.Errorf("%w: %v", ErrNotAssigned, err)
	}
	if err != nil {
		return taskq.Record{}, err
	}
	e.kick()
	return final, nil
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
// expiry, the batch trigger, then the overload shedder — in the order a
// started engine runs it every BatchPoll: once the tick has expired what
// the clock already killed, CoDel decides whether the surviving backlog's
// queue delay warrants shedding more.
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
			e.release(d.TaskID, d.Worker, taskq.CauseEq2, d.Probability)
		}
	}
}

// release returns a task held by workerID to the pool as a revocation for
// cause — the one place a binding is undone — and kicks the batch loop,
// since a task came free. The store checks the holder under the lock that
// revokes, so of two releases racing — a detach, a deregister, a refused
// delivery, an Eq. 2 verdict — the second is a no-op, and so is one whose
// task completed, expired or was rebound to another worker since the
// caller looked. The revoke event frees the worker
// (profile.Registry.Observe).
func (e *Engine) release(taskID, workerID, cause string, prob float64) {
	if e.tasks.unassign(taskID, workerID, cause, prob) != nil {
		return // lost the race: nothing came free
	}
	e.kick()
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
		// that accumulated while the modelled matcher ran. A round that
		// bound nothing and charged nothing (Eq. 3 pruned every edge)
		// changed nothing: re-checking would plan it again at the same
		// instant, forever. The next tick or kick re-checks instead.
		e.cfg.Defer(r.stats.Latency, func(time.Time) {
			e.finishRound(r.bindings)
			if len(r.bindings) > 0 || r.stats.Latency > 0 {
				e.TryBatch()
			}
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
			Workers:     len(avail),
			Tasks:       len(unassigned),
			Edges:       build.Edges,
			PrunedProb:  build.PrunedProb,
			Cycles:      ms.Cycles,
			Assignments: len(pairs),
			Elapsed:     elapsed,
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
		// The assign event marks the worker busy under the store lock, before
		// Deliver makes the binding visible to the worker.
		rec, err := e.tasks.assign(b.taskID, b.workerID)
		if err != nil {
			continue // expired or re-bound while the matcher ran
		}
		if e.hooks.Deliver != nil && !e.hooks.Deliver(rec) {
			// Transport refused (worker detached mid-delivery, connection
			// failed): revoke, which uncounts the assignment.
			e.release(b.taskID, b.workerID, taskq.CauseUndeliverable, 0)
		}
	}
}

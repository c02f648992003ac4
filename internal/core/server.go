// Package core assembles the four REACT components (Figure 1) into the
// deployable region server. The control logic itself — admission gates,
// batch trigger, WBGM scheduling, assignment application, Eq. 2 monitoring,
// expiry, shedding, retention — lives in internal/engine and is shared
// verbatim with the deterministic harness in internal/experiments; core
// adds what a live deployment needs on top: lifecycle goroutines that tick
// the engine against a real clock, and per-worker assignment feeds
// (channels) behind the engine's Deliver hook.
//
// It still accepts any clock.Clock, so integration tests drive it with a
// virtual clock.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/matching"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// Assignment is the notification a worker receives when the scheduler binds
// a task to them.
type Assignment = engine.Assignment

// Result is delivered to the requester side when a task terminates.
type Result = engine.Result

// Options configures a Server. Zero fields take the paper's defaults.
type Options struct {
	Clock         clock.Clock      // default clock.System{}
	Matcher       matching.Matcher // default REACT with adaptive cycles
	Schedule      schedule.Config  // batching, pruning, weights
	Monitor       engine.Monitor
	MonitorPeriod time.Duration // Eq. 2 sweep period (default 1s)
	BatchPoll     time.Duration // batch-trigger poll period (default 200ms)
	QueueDepth    int           // per-worker assignment channel depth (default 8)
	Shards        int           // task bookkeeping stripes (default GOMAXPROCS)

	// Retention bounds how long terminal task records are kept for late
	// Feedback and diagnostics before being garbage-collected. Zero keeps
	// everything (suits tests and short-lived tools); long-running servers
	// should set it (reactd defaults to 1h).
	Retention time.Duration

	// Admission, when non-nil, enables the engine's overload-protection
	// plane (engine.Config.Admission): every Submit passes its gates and
	// the CoDel shedder runs on the batch-poll cadence. Nil keeps the
	// paper's admit-everything behaviour.
	Admission *admission.Config
}

func (o Options) normalize() Options {
	if o.Clock == nil {
		o.Clock = clock.System{}
	}
	if o.MonitorPeriod <= 0 {
		o.MonitorPeriod = time.Second
	}
	if o.BatchPoll <= 0 {
		o.BatchPoll = 200 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	return o
}

// ErrStopped rejects calls on a server whose Stop has run.
var ErrStopped = errors.New("core: server stopped")

// Stats is a snapshot of the server's counters: the engine's, plus two
// worker gauges.
type Stats struct {
	engine.Stats
	// WorkersOnline counts connected workers (busy or idle). WorkersKnown
	// counts every profile the server remembers, including detached
	// workers whose history is retained for their return.
	WorkersOnline int
	WorkersKnown  int
}

// Add accumulates another server's counters — how a transport serving
// several region servers reports one total.
func (s *Stats) Add(o Stats) {
	s.Received += o.Received
	s.Assigned += o.Assigned
	s.Completed += o.Completed
	s.OnTime += o.OnTime
	s.Expired += o.Expired
	s.Shed += o.Shed
	s.Reassigned += o.Reassigned
	s.Batches += o.Batches
	s.MatcherTime += o.MatcherTime
	s.WorkersOnline += o.WorkersOnline
	s.WorkersKnown += o.WorkersKnown
}

// Region names one running region server: "all" for a lone server, the
// grid cell id behind a federation coordinator.
type Region struct {
	ID     string
	Server *Server
}

// Server is one REACT region server: the shared scheduling engine plus the
// live-deployment shell (ticker goroutines, channel feeds).
type Server struct {
	opts  Options
	eng   *engine.Engine
	store *journal.Store // non-nil once EnablePersistence ran

	mu     sync.Mutex // guards closed and feeds
	feeds  map[string]chan Assignment
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// New creates a server; call Start to launch its background loops.
func New(opts Options) *Server {
	opts = opts.normalize()
	s := &Server{
		opts:  opts,
		feeds: make(map[string]chan Assignment),
		stop:  make(chan struct{}),
	}
	s.eng = engine.New(engine.Config{
		Clock:     opts.Clock,
		Matcher:   opts.Matcher,
		Schedule:  opts.Schedule,
		Monitor:   opts.Monitor,
		Shards:    opts.Shards,
		Retention: opts.Retention,
		Admission: opts.Admission,
	}, engine.Hooks{
		Deliver: s.deliver,
	})
	return s
}

// Admission exposes the overload-protection controller (nil when
// admission is disabled) for observability wiring.
func (s *Server) Admission() *admission.Controller { return s.eng.Admission() }

// Events exposes the engine's lifecycle event spine — the wire layer's
// watch-events stream and the observability collectors feed from it.
func (s *Server) Events() *event.Bus { return s.eng.Events() }

// Workers exposes the profiling component (read-mostly; used by tools).
func (s *Server) Workers() *profile.Registry { return s.eng.Workers() }

// Tasks exposes the task-management component.
func (s *Server) Tasks() *engine.TaskStore { return s.eng.Tasks() }

// Engine exposes the shared scheduling engine itself.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Start launches the batch and monitor loops.
func (s *Server) Start() {
	s.wg.Add(2)
	go s.batchLoop()
	go s.monitorLoop()
}

// Stop terminates the loops, closes every worker feed, and — when
// persistence is enabled — closes the journal last, so its final group
// commit captures every mutation the loops produced on the way down
// (flush-before-shutdown ordering). It is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for id, ch := range s.feeds {
		close(ch)
		delete(s.feeds, id)
	}
	s.mu.Unlock()
	if s.store != nil {
		s.store.Close()
	}
}

// RegisterWorker attaches a worker and returns the channel on which it
// receives assignments; the channel is closed on DeregisterWorker,
// DetachWorker or Stop. A worker the server already knows — detached
// earlier, or recovered from the journal — re-attaches under its id with
// its learned history and, when loc is valid, its new location: workers
// have "short connectivity cycles" (§I), so returning is the common case.
// Only a second session while the first feed is still live is refused.
func (s *Server) RegisterWorker(id string, loc region.Point) (<-chan Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStopped
	}
	if _, live := s.feeds[id]; live {
		return nil, fmt.Errorf("core: worker %q already connected", id)
	}
	if _, err := s.eng.AttachWorker(id, loc); err != nil {
		return nil, err
	}
	ch := make(chan Assignment, s.opts.QueueDepth)
	s.feeds[id] = ch
	return ch, nil
}

// DeregisterWorker removes a worker. Any task it held is returned to the
// pool for reassignment.
func (s *Server) DeregisterWorker(id string) error {
	if err := s.eng.DeregisterWorker(id); err != nil {
		return err
	}
	s.dropFeed(id)
	return nil
}

// DetachWorker handles a worker dropping its connection without leaving
// the platform: the held task (if any) returns to the pool, the feed
// closes, and the profile is kept but marked unavailable — workers have
// "short connectivity cycles" (§I) and their learned history must survive
// them. Compare DeregisterWorker, which forgets the worker entirely.
func (s *Server) DetachWorker(id string) error {
	if err := s.eng.DetachWorker(id); err != nil {
		return err
	}
	s.dropFeed(id)
	return nil
}

// dropFeed closes and forgets a worker's assignment feed, if it has one.
func (s *Server) dropFeed(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.feeds[id]; ok {
		close(ch)
		delete(s.feeds, id)
	}
}

// Submit places a task into the system. With admission enabled it runs
// the gates with an anonymous requester (exempt from per-requester rate
// limits but subject to the ceiling and the probability floor);
// transports that know who is submitting use SubmitFrom.
func (s *Server) Submit(t taskq.Task) error {
	_, err := s.SubmitFrom("", t)
	return err
}

// SubmitFrom places a task into the system on behalf of requester; see
// engine.Engine.SubmitFrom for the gates and the typed rejection.
func (s *Server) SubmitFrom(requester string, t taskq.Task) (admission.Decision, error) {
	return s.eng.SubmitFrom(requester, t)
}

// Complete records a worker's answer for a task it holds. The execution
// time feeds the worker's power-law model immediately; the accuracy update
// waits for requester Feedback.
func (s *Server) Complete(taskID, workerID, answer string) (Result, error) {
	res, _, err := s.eng.Complete(taskID, workerID, answer)
	return res, err
}

// Feedback records the requester's verdict on a completed task, updating
// the worker's per-category accuracy (Eq. 1 numerator/denominator). A task
// can be graded once; repeats are rejected so accuracy counters cannot be
// inflated. Feedback for a task that never reached a worker (expired
// unassigned) or whose worker deregistered returns ErrNoWorker without
// consuming the grade.
func (s *Server) Feedback(taskID string, positive bool) error {
	return s.eng.Feedback(taskID, positive)
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	reg := s.eng.Workers()
	return Stats{Stats: s.eng.Stats(), WorkersOnline: reg.CountConnected(), WorkersKnown: reg.Size()}
}

// deliver is the engine's transport hook: push the assignment onto the
// worker's feed without blocking. A missing feed (nil: never ready) or a
// full one refuses the delivery, which makes the engine revoke the binding
// rather than let the task rot in a channel. The send happens under mu,
// which dropFeed holds to close the feed: a detach racing a round must not
// turn this send into one on a closed channel.
func (s *Server) deliver(a Assignment) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.feeds[a.WorkerID] <- a:
		return true
	default:
		return false
	}
}

// batchLoop ticks the engine: retention GC, expiry of overdue unassigned
// tasks, the batch trigger, and the shedder.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	//lint:ignore clockdiscipline the ticker only paces polling; every scheduling decision reads the injected opts.Clock
	ticker := time.NewTicker(s.opts.BatchPoll)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.eng.Tick()
	}
}

// monitorLoop runs the Eq. 2 sweep.
func (s *Server) monitorLoop() {
	defer s.wg.Done()
	//lint:ignore clockdiscipline the ticker only paces the sweep; Eq. 2 itself reads the injected opts.Clock
	ticker := time.NewTicker(s.opts.MonitorPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.eng.TickMonitor()
	}
}

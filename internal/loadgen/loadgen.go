// Package loadgen drives a live (TCP) REACT region server with a synthetic
// crowd and a task stream — the wall-clock counterpart of the deterministic
// harness in internal/experiments. It exists to exercise the deployed
// middleware end-to-end: real connections, real goroutine workers with the
// §V.C behaviour model, real deadlines. Because the experiments' 60–120 s
// deadlines would make each run minutes long, every duration is compressed
// by a configurable factor (default 100×: deadlines become 0.6–1.2 s,
// completions 10–200 ms), which preserves all the ratios the scheduler
// reasons about.
//
// The task stream is open-loop: one submission per schedule slot at a
// constant gap, never waiting for results. A submission the server's
// admission plane turns away (rate gate, probability floor, queue ceiling)
// is counted in the report and left behind — retrying it would close the
// loop — so the same run drives a plain server at the stable rate and a
// `reactd -admission` at ten times it.
//
// Every connection is a session: one loop per worker and one for the
// requester's result feed, the same loop in both modes. A plain run ends
// at its first dial, register or submit transport error. With Resilient
// set, a session whose connection drops redials and sets itself up again
// — a worker re-registers, and the server re-attaches the id with its
// learned history; the requester re-watches — and the requester
// reconciles outstanding tasks through the task-status query, so a run
// survives injected connection faults and even a server restart: the
// harness behind `reactload -chaos`. This loop is the in-tree
// implementation of docs/PROTOCOL.md's reconnect handshake.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"react/internal/clock"
	"react/internal/crowd"
	"react/internal/wire"
	"react/internal/workload"
)

// A resilient session redials with exponential backoff from redialBase to
// redialMax under ±50 % seeded jitter, so a crowd dropped by one fault
// does not redial in phase, and gives up after maxOutage without one.
const (
	redialBase = 20 * time.Millisecond
	redialMax  = time.Second
	maxOutage  = 30 * time.Second
)

// errStopped ends a session that would redial after its run finished.
var errStopped = errors.New("loadgen: run stopped")

// Config parameterizes one load run. Zero fields take defaults.
type Config struct {
	Addr     string  // region server address (required)
	Workers  int     // crowd size (default 20)
	Rate     float64 // tasks per *uncompressed* second (default: Workers/80, the paper's stable ratio)
	Tasks    int     // total tasks to submit (default 100)
	Seed     int64   // behaviour/workload seed
	Compress float64 // time compression factor (default 100)
	Logf     func(format string, args ...any)

	// Resilient makes every session redial when its connection drops and
	// turns on requester-side reconciliation: results whose push was lost
	// to an outage are recovered via the task-status query, and tasks the
	// server never saw (submission cut mid-flight, or a restart wiped the
	// queue) are resubmitted. A resilient run is the way to drive a server
	// that is being deliberately broken underneath it.
	Resilient bool

	// OnSubmit, if set, is called after each successful submission with
	// the number submitted so far — the hook chaos drivers use to fire
	// faults at chosen points in the run.
	OnSubmit func(n int)

	// Clock is the timebase for pacing, deadlines, redial backoff and the
	// wall-time report (default clock.System{}). Injectable so the
	// generator obeys the same clock discipline as the rest of the module.
	Clock clock.Sleeper
}

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = 20
	}
	if c.Rate <= 0 {
		// The paper's stable operating ratio: ~80 workers per task/s
		// (750 workers at 9.375 tasks/s).
		c.Rate = float64(c.Workers) / 80
	}
	if c.Tasks <= 0 {
		c.Tasks = 100
	}
	if c.Compress <= 0 {
		c.Compress = 100
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	return c
}

// Report summarizes a run from the requester's perspective, plus the
// server's own counters.
type Report struct {
	Submitted int // submissions the server accepted
	// Submissions the admission plane turned away, by gate. Offered load
	// is Submitted plus these three.
	RejectedRate        int // per-requester token bucket (retryable)
	RejectedProbability int // predicted deadline-meeting probability below the floor
	QueueFull           int // in-flight ceiling (retryable)
	Results             int // results observed (pushes plus reconciled statuses)
	OnTime              int
	Late                int
	Expired             int
	Positive            int // positive feedbacks sent
	Wall                time.Duration
	Server              wire.StatsPayload

	// Resilience accounting (resilient runs only).
	Resubmitted int   // tasks re-sent because the server had no record of them
	Reconciled  int   // terminal states recovered by status query, not push
	Unresolved  int   // tasks that never reached a terminal state — MUST be 0
	Reconnects  int64 // sessions re-established across all connections
	Stale       int64 // late responses discarded by Seq correlation
	Mismatched  int64 // responses that matched no request — MUST be 0
}

// countRejection files a submit error under the admission gate that
// produced it; false means the error is not an admission verdict.
func (r *Report) countRejection(err error) bool {
	var se *wire.ServerError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case wire.CodeRejectedRate:
		r.RejectedRate++
	case wire.CodeRejectedProbability:
		r.RejectedProbability++
	case wire.CodeQueueFull:
		r.QueueFull++
	default:
		return false
	}
	return true
}

// run is one Run's shared state. The submitting goroutine owns rep's
// submission counters; mu guards everything the sessions touch.
type run struct {
	cfg Config
	wg  sync.WaitGroup // one per session loop

	mu          sync.Mutex
	rep         Report
	outstanding map[string]wire.TaskPayload // submitted, no terminal state seen yet
	req         *wire.Client                // the requester's current session
	live        map[*wire.Client]bool       // open sessions, closed by stop
	stopped     bool
}

// Run executes the load: Workers worker sessions with crowd behaviours,
// one watching requester, Tasks submissions at the configured rate.
func Run(cfg Config) (Report, error) {
	cfg = cfg.normalize()
	start := cfg.Clock.Now()
	r := &run{
		cfg:         cfg,
		outstanding: make(map[string]wire.TaskPayload, cfg.Tasks),
		live:        make(map[*wire.Client]bool),
	}
	defer r.stop()

	// Crowd sessions, spread uniformly over the same area the task
	// generator uses so multi-region backends see workers in every cell.
	gen := workload.Generator{Prefix: fmt.Sprintf("load-%d", cfg.Seed)}.Normalize()
	locRng := rand.New(rand.NewSource(cfg.Seed ^ 0x10c))
	behaviors := crowd.NewPopulation(cfg.Workers, rand.New(rand.NewSource(cfg.Seed)))
	for i, b := range behaviors {
		id := fmt.Sprintf("load-w%03d", i)
		loc := gen.Area.RandomPoint(locRng)
		register := func(cl *wire.Client) error { return cl.Register(id, loc.Lat, loc.Lon) }
		jitter := rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)<<20))
		cl, err := r.connect(jitter, register)
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: worker %s: %w", id, err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i*2654435761)))
		r.wg.Add(1)
		go r.session(cl, jitter, register, func(cl *wire.Client) {
			for a := range cl.Assignments() {
				cfg.Clock.Sleep(time.Duration(float64(b.ExecTime(rng)) / cfg.Compress))
				// Reassigned tasks fail Complete; that is expected traffic.
				// One lost with its connection is the server's to recover:
				// the detach returns the task to the pool.
				cl.Complete(a.TaskID, id, "synthetic answer")
			}
		})
	}

	// Requester session: watch results, grade them.
	watch := func(cl *wire.Client) error {
		if err := cl.Watch(); err != nil {
			return err
		}
		r.mu.Lock()
		r.req = cl
		r.mu.Unlock()
		return nil
	}
	jitter := rand.New(rand.NewSource(cfg.Seed ^ 0x5e90))
	req, err := r.connect(jitter, watch)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: requester: %w", err)
	}
	r.wg.Add(1)
	go r.session(req, jitter, watch, func(cl *wire.Client) {
		for res := range cl.Results() {
			r.settle(res.TaskID, res.Expired, res.MetDeadline, false)
		}
	})

	// Submission loop: compressed constant-rate stream with the §V.C
	// deadline band.
	wrng := rand.New(rand.NewSource(cfg.Seed ^ 0x10adfeed))
	gap := time.Duration(float64(time.Second) / cfg.Rate / cfg.Compress)
	for i := 0; i < cfg.Tasks; i++ {
		task := gen.Make(i, cfg.Clock.Now(), wrng)
		deadline := time.Duration(float64(task.Deadline.Sub(cfg.Clock.Now())) / cfg.Compress)
		payload := wire.TaskPayload{
			ID:          task.ID,
			Lat:         task.Location.Lat,
			Lon:         task.Location.Lon,
			DeadlineMS:  deadline.Milliseconds(),
			Reward:      task.Reward,
			Category:    task.Category,
			Description: task.Description,
		}
		r.mu.Lock()
		r.outstanding[payload.ID] = payload
		r.mu.Unlock()
		switch err := r.requester().Submit(payload); {
		case err == nil:
		case r.rep.countRejection(err):
			// Turned away at the door: counted and left behind — retrying
			// would close the loop.
			r.mu.Lock()
			delete(r.outstanding, payload.ID)
			r.mu.Unlock()
			cfg.Clock.Sleep(gap)
			continue
		case !cfg.Resilient:
			return Report{}, fmt.Errorf("loadgen: submit: %w", err)
		default:
			// Ambiguous failure (timeout, conn cut mid-send): the server
			// may or may not have the task. Leave it outstanding — the
			// reconcile pass resubmits if the server reports "unknown".
			cfg.Logf("loadgen: submit %s unconfirmed: %v", payload.ID, err)
		}
		r.rep.Submitted++
		if cfg.OnSubmit != nil {
			cfg.OnSubmit(r.rep.Submitted)
		}
		cfg.Clock.Sleep(gap)
	}
	cfg.Logf("loadgen: submitted %d tasks, draining", r.rep.Submitted)

	// Drain: wait for every submission to terminate (bounded), then read
	// the server's counters. Resilient runs get a wider window — recovery
	// from injected faults (backoff, idle-deadline detection, restart)
	// happens in uncompressed time — and retry the closing stats query on
	// a fresh session within it.
	window := time.Duration(float64(3*time.Minute) / cfg.Compress * 2)
	if cfg.Resilient && window < 15*time.Second {
		window = 15 * time.Second
	}
	deadline := cfg.Clock.Now().Add(window)
	var stats wire.StatsPayload
	for {
		r.mu.Lock()
		open := len(r.outstanding)
		r.mu.Unlock()
		late := !cfg.Clock.Now().Before(deadline)
		if open == 0 || late {
			if stats, err = r.requester().Stats(); err == nil || !cfg.Resilient || late {
				break
			}
		} else if cfg.Resilient {
			r.reconcile()
		}
		cfg.Clock.Sleep(10 * time.Millisecond)
	}
	r.stop()
	if err == nil {
		r.rep.Server = stats
	}
	r.rep.Unresolved = len(r.outstanding)
	r.rep.Wall = cfg.Clock.Now().Sub(start)
	return r.rep, nil
}

// session is one connection's life for the whole run: drain its feed until
// the connection drops and add its wire counters to the report, then —
// resilient runs only — redial and set up again.
func (r *run) session(cl *wire.Client, jitter *rand.Rand, setup func(*wire.Client) error, drain func(*wire.Client)) {
	defer r.wg.Done()
	for {
		drain(cl)
		cl.Close()
		m := cl.Metrics()
		r.mu.Lock()
		delete(r.live, cl)
		r.rep.Stale += m.StaleResponses
		r.rep.Mismatched += m.MismatchedResponses
		r.mu.Unlock()
		if !r.cfg.Resilient {
			return
		}
		var err error
		if cl, err = r.connect(jitter, setup); err != nil {
			if !errors.Is(err, errStopped) {
				r.cfg.Logf("loadgen: session lost: %v", err)
			}
			return
		}
		r.mu.Lock()
		r.rep.Reconnects++
		r.mu.Unlock()
	}
}

// connect opens a session: dial, then setup (register or watch). A plain
// run gets one attempt. A resilient one retries with backoff for up to
// maxOutage: a restarting server refuses the dial, and one that has not
// yet noticed the old connection die refuses the register as already
// connected.
func (r *run) connect(jitter *rand.Rand, setup func(*wire.Client) error) (*wire.Client, error) {
	start := r.cfg.Clock.Now()
	for delay := redialBase; ; delay = min(2*delay, redialMax) {
		cl, err := r.dial(setup)
		if err == nil || errors.Is(err, errStopped) || !r.cfg.Resilient {
			return cl, err
		}
		if r.cfg.Clock.Now().Sub(start) > maxOutage {
			return nil, fmt.Errorf("%s unreachable for %v: %w", r.cfg.Addr, maxOutage, err)
		}
		r.cfg.Logf("loadgen: redial %s: %v", r.cfg.Addr, err)
		r.cfg.Clock.Sleep(time.Duration(float64(delay) * (0.5 + jitter.Float64())))
	}
}

// dial makes one attempt at a session and, unless the run has stopped,
// records it as live so stop can close it.
func (r *run) dial(setup func(*wire.Client) error) (*wire.Client, error) {
	r.mu.Lock()
	stopped := r.stopped
	r.mu.Unlock()
	if stopped {
		return nil, errStopped
	}
	cl, err := wire.Dial(r.cfg.Addr)
	if err != nil {
		return nil, err
	}
	if err := setup(cl); err != nil {
		cl.Close()
		return nil, err
	}
	r.mu.Lock()
	stopped = r.stopped
	if !stopped {
		r.live[cl] = true
	}
	r.mu.Unlock()
	if stopped {
		cl.Close()
		return nil, errStopped
	}
	return cl, nil
}

// stop ends the run: every live session is closed, none redials, and once
// the session loops have returned every report field is settled.
func (r *run) stop() {
	r.mu.Lock()
	r.stopped = true
	live := make([]*wire.Client, 0, len(r.live))
	for cl := range r.live {
		live = append(live, cl)
	}
	r.mu.Unlock()
	for _, cl := range live {
		cl.Close()
	}
	r.wg.Wait()
}

// requester is the requester's current session. While it is being
// redialed this is the dead one, whose calls fail at once into the paths
// that already recover them.
func (r *run) requester() *wire.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.req
}

// settle records one terminal observation; idempotent per task so a push
// racing a reconciling status query cannot double-count.
func (r *run) settle(taskID string, expired, metDeadline, reconciled bool) {
	r.mu.Lock()
	if _, open := r.outstanding[taskID]; !open {
		r.mu.Unlock()
		return
	}
	delete(r.outstanding, taskID)
	r.rep.Results++
	switch {
	case expired:
		r.rep.Expired++
	case metDeadline:
		r.rep.OnTime++
	default:
		r.rep.Late++
	}
	if reconciled {
		r.rep.Reconciled++
	}
	req := r.req
	r.mu.Unlock()
	if !expired {
		if err := req.Feedback(taskID, metDeadline); err == nil && metDeadline {
			r.mu.Lock()
			r.rep.Positive++
			r.mu.Unlock()
		}
	}
}

// reconcile resolves outstanding tasks whose result push was lost to an
// outage: terminal states are settled from the status query, and tasks the
// server has no record of are resubmitted with a fresh deadline.
func (r *run) reconcile() {
	r.mu.Lock()
	open := make([]wire.TaskPayload, 0, len(r.outstanding))
	for _, p := range r.outstanding {
		open = append(open, p)
	}
	req := r.req
	r.mu.Unlock()
	for _, p := range open {
		st, err := req.TaskStatus(p.ID)
		if err != nil {
			return // connection trouble; the next pass retries
		}
		switch st.State {
		case "completed":
			r.settle(p.ID, false, st.MetDeadline, true)
		case "expired":
			r.settle(p.ID, true, false, true)
		case "unknown":
			// The server never saw it (cut submission) or lost it (task
			// state is in-memory; a restart wipes the queue). Resubmit.
			err := req.Submit(p)
			if err == nil {
				r.mu.Lock()
				r.rep.Resubmitted++
				r.mu.Unlock()
				r.cfg.Logf("loadgen: resubmitted %s", p.ID)
			} else if errors.Is(err, wire.ErrTimeout) ||
				strings.Contains(err.Error(), "duplicate") {
				continue // ambiguous or raced a concurrent resubmit; retry next pass
			}
		}
	}
}

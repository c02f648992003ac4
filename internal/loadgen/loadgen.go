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
// With Resilient set, every connection is a wire.ReconnectingClient and the
// requester reconciles outstanding tasks through the task-status query, so
// a run survives injected connection faults and even a server restart —
// the harness behind `reactload -chaos`.
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

// Config parameterizes one load run. Zero fields take defaults.
type Config struct {
	Addr     string  // region server address (required)
	Workers  int     // crowd size (default 20)
	Rate     float64 // tasks per *uncompressed* second (default: Workers/80, the paper's stable ratio)
	Tasks    int     // total tasks to submit (default 100)
	Seed     int64   // behaviour/workload seed
	Compress float64 // time compression factor (default 100)
	Logf     func(format string, args ...any)

	// Resilient switches every connection to a wire.ReconnectingClient
	// and turns on requester-side reconciliation: results whose push was
	// lost to an outage are recovered via the task-status query, and
	// tasks the server never saw (submission cut mid-flight, or a restart
	// wiped the queue) are resubmitted. A resilient run is the way to
	// drive a server that is being deliberately broken underneath it.
	Resilient bool

	// OnSubmit, if set, is called after each successful submission with
	// the number submitted so far — the hook chaos drivers use to fire
	// faults at chosen points in the run.
	OnSubmit func(n int)

	// Clock is the timebase for pacing, deadlines, and the wall-time
	// report (default clock.System{}). Injectable so the generator obeys
	// the same clock discipline as the rest of the module.
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

// client is the connection surface the generator drives, satisfied by both
// *wire.Client and *wire.ReconnectingClient.
type client interface {
	Register(workerID string, lat, lon float64) error
	Assignments() <-chan wire.AssignmentPayload
	Complete(taskID, workerID, answer string) error
	Watch() error
	Results() <-chan wire.ResultPayload
	Feedback(taskID string, positive bool) error
	Submit(t wire.TaskPayload) error
	Stats() (wire.StatsPayload, error)
	TaskStatus(taskID string) (wire.TaskStatusPayload, error)
	Metrics() wire.ClientMetrics
	Close() error
}

// dial opens one connection in the run's chosen mode. Resilient dials
// return immediately and connect in the background; the first call blocks
// until the session is up.
func (c Config) dial(seed int64) (client, error) {
	if !c.Resilient {
		return wire.Dial(c.Addr)
	}
	return wire.DialReconnecting(wire.ReconnectConfig{
		Addr:      c.Addr,
		Seed:      seed,
		BaseDelay: 20 * time.Millisecond,
		MaxDelay:  time.Second,
		MaxOutage: 30 * time.Second,
		Logf:      c.Logf,
	})
}

// gather folds one connection's wire metrics into the report.
func gather(rep *Report, c client) {
	m := c.Metrics()
	rep.Stale += m.StaleResponses
	rep.Mismatched += m.MismatchedResponses
	if rc, ok := c.(*wire.ReconnectingClient); ok {
		rep.Reconnects += rc.Reconnects()
	}
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

// Run executes the load: Workers worker connections with crowd behaviours,
// one watching requester, Tasks submissions at the configured rate.
func Run(cfg Config) (Report, error) {
	cfg = cfg.normalize()
	start := cfg.Clock.Now()

	// Crowd connections, spread uniformly over the same area the task
	// generator uses so multi-region backends see workers in every cell.
	gen := workload.Generator{Prefix: fmt.Sprintf("load-%d", cfg.Seed)}.Normalize()
	locRng := rand.New(rand.NewSource(cfg.Seed ^ 0x10c))
	behaviors := crowd.NewPopulation(cfg.Workers, rand.New(rand.NewSource(cfg.Seed)))
	var wg sync.WaitGroup
	workers := make([]client, 0, cfg.Workers)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i, b := range behaviors {
		cl, err := cfg.dial(cfg.Seed ^ int64(i+1)<<20)
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: worker dial: %w", err)
		}
		workers = append(workers, cl)
		id := fmt.Sprintf("load-w%03d", i)
		loc := gen.Area.RandomPoint(locRng)
		if err := cl.Register(id, loc.Lat, loc.Lon); err != nil {
			return Report{}, fmt.Errorf("loadgen: register %s: %w", id, err)
		}
		wg.Add(1)
		go func(id string, cl client, b crowd.Behavior, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for a := range cl.Assignments() {
				exec := time.Duration(float64(b.ExecTime(rng)) / cfg.Compress)
				cfg.Clock.Sleep(exec)
				// Reassigned tasks fail Complete; that is expected traffic.
				cl.Complete(a.TaskID, id, "synthetic answer")
			}
		}(id, cl, b, cfg.Seed^int64(i*2654435761))
	}

	// Requester connection: watch results, grade them.
	req, err := cfg.dial(cfg.Seed ^ 0x5e90)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: requester dial: %w", err)
	}
	defer req.Close()
	if err := req.Watch(); err != nil {
		return Report{}, err
	}

	var rep Report
	var mu sync.Mutex
	// outstanding tracks every submitted task until a terminal state is
	// observed — by result push, or (resilient runs) by status query.
	outstanding := make(map[string]wire.TaskPayload, cfg.Tasks)
	// settle records one terminal observation; idempotent per task so a
	// push racing a reconciling status query cannot double-count.
	settle := func(taskID string, expired, metDeadline bool, reconciled bool) {
		mu.Lock()
		if _, open := outstanding[taskID]; !open {
			mu.Unlock()
			return
		}
		delete(outstanding, taskID)
		rep.Results++
		switch {
		case expired:
			rep.Expired++
		case metDeadline:
			rep.OnTime++
		default:
			rep.Late++
		}
		if reconciled {
			rep.Reconciled++
		}
		mu.Unlock()
		if !expired {
			if err := req.Feedback(taskID, metDeadline); err == nil && metDeadline {
				mu.Lock()
				rep.Positive++
				mu.Unlock()
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range req.Results() {
			settle(r.TaskID, r.Expired, r.MetDeadline, false)
		}
	}()

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
		mu.Lock()
		outstanding[payload.ID] = payload
		mu.Unlock()
		switch err := req.Submit(payload); {
		case err == nil:
		case rep.countRejection(err):
			// Turned away at the door: counted and left behind — retrying
			// would close the loop.
			mu.Lock()
			delete(outstanding, payload.ID)
			mu.Unlock()
			cfg.Clock.Sleep(gap)
			continue
		case !cfg.Resilient:
			return rep, fmt.Errorf("loadgen: submit: %w", err)
		default:
			// Ambiguous failure (timeout, conn cut mid-send): the server
			// may or may not have the task. Leave it outstanding — the
			// reconcile pass resubmits if the server reports "unknown".
			cfg.Logf("loadgen: submit %s unconfirmed: %v", payload.ID, err)
		}
		rep.Submitted++
		if cfg.OnSubmit != nil {
			cfg.OnSubmit(rep.Submitted)
		}
		cfg.Clock.Sleep(gap)
	}
	cfg.Logf("loadgen: submitted %d tasks, draining", rep.Submitted)

	// Drain: wait for every submission to terminate (bounded). Resilient
	// runs get a wider window — recovery from injected faults (backoff,
	// idle-deadline detection, restart) happens in uncompressed time.
	window := time.Duration(float64(3*time.Minute) / cfg.Compress * 2)
	if cfg.Resilient && window < 15*time.Second {
		window = 15 * time.Second
	}
	deadline := cfg.Clock.Now().Add(window)
	for cfg.Clock.Now().Before(deadline) {
		mu.Lock()
		open := len(outstanding)
		mu.Unlock()
		if open == 0 {
			break
		}
		if cfg.Resilient {
			reconcile(cfg, req, &mu, outstanding, &rep, settle)
		}
		cfg.Clock.Sleep(10 * time.Millisecond)
	}
	stats, err := req.Stats()
	for _, w := range workers {
		gather(&rep, w)
		w.Close()
	}
	wg.Wait()
	// Close the requester feed and wait for the result collector so every
	// rep field is settled before the final read.
	gather(&rep, req)
	req.Close()
	<-done
	if err == nil {
		rep.Server = stats
	}
	mu.Lock()
	rep.Unresolved = len(outstanding)
	mu.Unlock()
	rep.Wall = cfg.Clock.Now().Sub(start)
	return rep, nil
}

// reconcile resolves outstanding tasks whose result push was lost to an
// outage: terminal states are settled from the status query, and tasks the
// server has no record of are resubmitted with a fresh deadline.
func reconcile(cfg Config, req client, mu *sync.Mutex,
	outstanding map[string]wire.TaskPayload, rep *Report,
	settle func(taskID string, expired, metDeadline, reconciled bool)) {
	mu.Lock()
	open := make([]wire.TaskPayload, 0, len(outstanding))
	for _, p := range outstanding {
		open = append(open, p)
	}
	mu.Unlock()
	for _, p := range open {
		st, err := req.TaskStatus(p.ID)
		if err != nil {
			return // connection trouble; the next pass retries
		}
		switch st.State {
		case "completed":
			settle(p.ID, false, st.MetDeadline, true)
		case "expired":
			settle(p.ID, true, false, true)
		case "unknown":
			// The server never saw it (cut submission) or lost it (task
			// state is in-memory; a restart wipes the queue). Resubmit.
			err := req.Submit(p)
			if err == nil {
				mu.Lock()
				rep.Resubmitted++
				mu.Unlock()
				cfg.Logf("loadgen: resubmitted %s", p.ID)
			} else if errors.Is(err, wire.ErrTimeout) ||
				strings.Contains(err.Error(), "duplicate") {
				continue // ambiguous or raced a concurrent resubmit; retry next pass
			}
		}
	}
}

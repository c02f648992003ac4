// Package admission is REACT's overload-protection plane: it decides at
// submit time whether a task can plausibly be served before its deadline,
// and degrades gracefully when the answer is no. Without it the engine
// admits every task unconditionally, so under sustained overload the
// unassigned pool grows without bound, batches bloat, matcher latency
// climbs, and goodput (tasks completed within deadline) collapses — the
// regime Eq. 3 pruning mitigates too late, at graph-construction time
// instead of intake.
//
// The controller runs three gates, cheapest first:
//
//  1. Per-requester token buckets (rate fairness): a requester that
//     exceeds its refill rate is rejected with a retry-after hint sized
//     to the token deficit.
//  2. A global concurrency ceiling: when the live (unassigned + assigned)
//     population reaches MaxInflight, further submissions are rejected
//     with a retry-after hint sized to the fleet's median service time.
//  3. A predicted deadline-meeting probability: the fleet's pooled
//     power-law execution-time CCDF, discounted by the estimated queue
//     delay (backlog over online-worker capacity), yields P(meet) for
//     the incoming deadline; below the configured floor the task is
//     rejected as implausible.
//
// Between submissions, a CoDel-style shedder (codel.go) watches the
// sojourn time of the oldest unassigned task and, when it stays above
// target, sheds earliest-deadline victims at the standard
// interval/√count cadence — bounding queue delay for the tasks that
// remain instead of letting every deadline rot in the pool.
//
// Every signal is the engine's own: the controller reads the clock, the
// event.Ledger and the profile.Registry the engine binds (Attach) — the
// load gauges from the ledger, the online worker count and the fleet's
// pooled execution-time law from the registry — so it keeps no copy of
// them and never polls or locks the engine. Every decision is typed
// (Decision / Status) and
// surfaces to clients through the wire layer's submit reply; shed
// victims carry taskq.CauseShed through the spine, journal, and tail
// watchers. See docs/ADMISSION.md.
package admission

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/profile"
	"react/internal/taskq"
)

// minSamples is how many fleet execution-time samples the probability gate
// needs before it acts: a cold start admits optimistically.
const minSamples = 30

// Status classifies an admission decision. The strings are wire-visible:
// they appear verbatim in the submit reply's admission payload and as
// error codes, so clients switch on them.
type Status string

// Decision statuses. StatusShed never appears in a submit reply (a shed
// task was admitted earlier); it is the status tail watchers see on the
// CauseShed expiry event and the vocabulary reactload uses to split
// losses.
const (
	StatusAdmitted            Status = "admitted"
	StatusRejectedProbability Status = "rejected_probability"
	StatusRejectedRate        Status = "rejected_rate"
	StatusShed                Status = "shed"
)

// Retryable reports whether a client holding this status should retry
// the same submission later: rate/capacity rejections clear as load
// drains, probability rejections do not (the deadline only gets closer).
func (s Status) Retryable() bool { return s == StatusRejectedRate }

// Decision is the controller's verdict on one submission.
type Decision struct {
	Status Status
	// Probability is the predicted deadline-meeting probability at submit
	// time (carried on admissions too, so requesters can log it). Zero
	// when the fleet model is still cold.
	Probability float64
	// Floor is the configured rejection threshold, echoed for context.
	Floor float64
	// RetryAfter hints when a rejected submission is worth retrying
	// (zero for admissions and for permanent rejections).
	RetryAfter time.Duration
}

// Admitted reports whether the task entered the system.
func (d Decision) Admitted() bool { return d.Status == StatusAdmitted }

// Err converts a rejection into its typed error (nil for admissions).
func (d Decision) Err() error {
	if d.Admitted() {
		return nil
	}
	return &RejectionError{Decision: d}
}

// RejectionError is the typed, client-visible rejection. Transports
// unwrap it with errors.As to echo the status and retry-after hint.
type RejectionError struct {
	Decision Decision
}

func (e *RejectionError) Error() string {
	switch e.Decision.Status {
	case StatusRejectedProbability:
		return fmt.Sprintf("admission: rejected, deadline-meet probability %.3f below floor %.3f",
			e.Decision.Probability, e.Decision.Floor)
	case StatusRejectedRate:
		return fmt.Sprintf("admission: rejected, over rate or capacity limit (retry after %v)",
			e.Decision.RetryAfter)
	default:
		return fmt.Sprintf("admission: rejected (%s)", e.Decision.Status)
	}
}

// Config parameterizes a Controller. The zero value admits everything
// (every gate disabled) — admission is strictly opt-in, which is what
// keeps the deterministic simulation figures byte-identical.
type Config struct {
	// ProbFloor rejects tasks whose predicted deadline-meeting
	// probability falls below it. 0 disables the gate; 0.2 is a
	// reasonable production floor.
	ProbFloor float64
	// MaxInflight caps the live (unassigned + assigned) population as
	// observed from the spine. 0 disables the ceiling.
	MaxInflight int
	// RequesterRate is each requester's sustained submissions/second; its
	// bucket holds 2×rate tokens, at least 1. Rate 0 disables per-requester
	// limiting.
	RequesterRate float64
	// ShedTarget is the CoDel sojourn target for the oldest unassigned
	// task (default 5s); ShedInterval the initial drop interval
	// (default 500ms). ShedTarget < 0 disables shedding.
	ShedTarget   time.Duration
	ShedInterval time.Duration
}

func (c Config) normalize() Config {
	if c.ShedTarget == 0 {
		c.ShedTarget = 5 * time.Second
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 500 * time.Millisecond
	}
	return c
}

// Controller is one region's admission plane. All methods are safe for
// concurrent use; Decide takes none of the engine's locks, so it cannot
// extend a scheduling critical section.
type Controller struct {
	cfg   Config
	burst float64 // each requester bucket's capacity: 2×RequesterRate, at least 1

	// clk, ledger and reg are the attached engine's (Attach): its clock;
	// its ledger, where the load signals — live population, unassigned
	// backlog, shed count — are read, so the gates and Stats can never
	// disagree and recovery seeds one; and its worker registry, which
	// counts the online workers and pools the fleet's execution-time law.
	// Until Attach: the system clock, an empty ledger and an empty
	// registry.
	clk    clock.Clock
	ledger *event.Ledger
	reg    *profile.Registry

	// bktMu guards the per-requester token buckets (bucket.go).
	bktMu   sync.Mutex
	buckets map[string]*bucket

	// shedMu guards the CoDel state machine (codel.go).
	shedMu     sync.Mutex
	aboveSince time.Time
	dropNext   time.Time
	dropCount  int

	// Decision counters, exposed via Snapshot and the obs collector.
	admitted     atomic.Int64
	rejectedProb atomic.Int64
	rejectedRate atomic.Int64

	// observer, when set, sees every Decide verdict (obs feeds its
	// probability histogram from it). Called outside all locks.
	obsMu    sync.Mutex
	observer func(Decision)
}

// New creates a controller reading the system clock, an empty ledger and
// an empty registry. The one a region runs is built and attached by
// engine.New, from engine.Config.Admission.
func New(cfg Config) *Controller {
	cfg = cfg.normalize()
	return &Controller{
		cfg:     cfg,
		burst:   max(2*cfg.RequesterRate, 1),
		clk:     clock.System{},
		ledger:  new(event.Ledger),
		reg:     profile.NewRegistry(),
		buckets: make(map[string]*bucket),
	}
}

// Config reports the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Attach binds the controller to the engine it fronts: that engine's
// clock, the ledger its spine folds, and its worker registry, whose own
// fold (profile.Registry.Observe) pools the fleet's execution times. Call
// it once, before traffic starts.
func (c *Controller) Attach(clk clock.Clock, l *event.Ledger, r *profile.Registry) {
	c.clk, c.ledger, c.reg = clk, l, r
}

// Tap does nothing: the fleet law lives in the attached registry, which
// its own spine fold feeds. It is kept for the benchmark module, which
// still installs it.
func (c *Controller) Tap(event.Event) {}

// SetObserver installs fn as the per-decision observer (nil clears it).
func (c *Controller) SetObserver(fn func(Decision)) {
	c.obsMu.Lock()
	c.observer = fn
	c.obsMu.Unlock()
}

func (c *Controller) observe(d Decision) {
	c.obsMu.Lock()
	fn := c.observer
	c.obsMu.Unlock()
	if fn != nil {
		fn(d)
	}
}

// Decide runs the admission gates for one submission. requester
// identifies the submitting party for rate fairness ("" is exempt from
// the per-requester bucket — internal resubmission paths use it). The
// task is NOT submitted; the caller submits only on an admitted verdict.
func (c *Controller) Decide(requester string, t taskq.Task) Decision {
	now := c.clk.Now()

	if c.cfg.RequesterRate > 0 && requester != "" {
		if wait := c.takeToken(requester, now); wait > 0 {
			c.rejectedRate.Add(1)
			d := Decision{Status: StatusRejectedRate, RetryAfter: wait}
			c.observe(d)
			return d
		}
	}

	if c.cfg.MaxInflight > 0 && c.ledger.InFlight() >= int64(c.cfg.MaxInflight) {
		c.rejectedRate.Add(1)
		d := Decision{Status: StatusRejectedRate, RetryAfter: c.drainHint()}
		c.observe(d)
		return d
	}

	prob, modeled := c.probMeet(t.Deadline.Sub(now))
	if modeled && c.cfg.ProbFloor > 0 && prob < c.cfg.ProbFloor {
		c.rejectedProb.Add(1)
		d := Decision{Status: StatusRejectedProbability, Probability: prob, Floor: c.cfg.ProbFloor}
		c.observe(d)
		return d
	}

	c.admitted.Add(1)
	d := Decision{Status: StatusAdmitted, Probability: prob, Floor: c.cfg.ProbFloor}
	c.observe(d)
	return d
}

// probMeet predicts the probability that a task with the given time to
// deadline completes on time: the fleet CCDF evaluated at the deadline
// budget left after the estimated queue delay (backlog spread across
// online workers, each slot costing one median service time). The second
// return is false while the fleet model is cold (too few samples), in
// which case the probability gate must not reject.
func (c *Controller) probMeet(ttd time.Duration) (float64, bool) {
	if ttd <= 0 {
		return 0, true
	}
	n, model := c.reg.FleetModel()
	if n < minSamples {
		return 0, false
	}
	w := c.reg.CountConnected()
	if w <= 0 {
		// No workers online: nothing can be served before any deadline.
		return 0, true
	}
	budget := ttd.Seconds() - float64(c.ledger.Unassigned())/float64(w)*model.Median()
	if budget <= 0 {
		return 0, true
	}
	return model.ProbMeetDeadline(budget), true
}

// drainHint sizes the retry-after for a capacity rejection: one median
// service time (the cadence at which in-flight slots free up), or a
// conservative constant while the model is cold.
func (c *Controller) drainHint() time.Duration {
	n, model := c.reg.FleetModel()
	if n < minSamples {
		return time.Second
	}
	d := time.Duration(model.Median() * float64(time.Second))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// RequesterBucket is one requester's bucket state in a Snapshot.
type RequesterBucket struct {
	Requester string  `json:"requester"`
	Fill      float64 `json:"fill"`  // tokens currently available
	Burst     float64 `json:"burst"` // bucket capacity
}

// Snapshot is a point-in-time view of the admission plane for /statusz
// and reactctl top. Counters are monotonic; gauges are instantaneous.
type Snapshot struct {
	ProbFloor           float64           `json:"prob_floor"`
	MaxInflight         int               `json:"max_inflight"`
	Inflight            int64             `json:"inflight"`
	Unassigned          int64             `json:"unassigned"`
	WorkersOnline       int               `json:"workers_online"`
	FleetSamples        int               `json:"fleet_samples"`
	MedianExecSeconds   float64           `json:"median_exec_seconds"`
	CapacityPerSec      float64           `json:"capacity_per_sec"`
	Admitted            int64             `json:"admitted"`
	RejectedProbability int64             `json:"rejected_probability"`
	RejectedRate        int64             `json:"rejected_rate"`
	Shed                int64             `json:"shed"`
	Buckets             []RequesterBucket `json:"buckets,omitempty"`
}

// Counters reads the monotonic decision counters. Unlike Snapshot it
// does no bucket or model work, so scrape-time metric funcs can call it
// freely.
func (c *Controller) Counters() (admitted, rejectedProbability, rejectedRate, shed int64) {
	return c.admitted.Load(), c.rejectedProb.Load(), c.rejectedRate.Load(), c.ledger.Counts().Shed
}

// Loads reads the instantaneous spine-maintained load gauges.
func (c *Controller) Loads() (inflight, unassigned int64) {
	return c.ledger.InFlight(), c.ledger.Unassigned()
}

// FleetModel reports the attached registry's pooled execution-time model:
// sample count, and — once warm — the median service time in seconds. ok
// is false while the model is cold (fewer than 30 samples).
func (c *Controller) FleetModel() (samples int, medianSeconds float64, ok bool) {
	samples, model := c.reg.FleetModel()
	if samples < minSamples {
		return samples, 0, false
	}
	return samples, model.Median(), true
}

// Snapshot captures the current state. The bucket list is refreshed to
// now (so fills reflect elapsed refill) and sorted by requester.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		ProbFloor:           c.cfg.ProbFloor,
		MaxInflight:         c.cfg.MaxInflight,
		Inflight:            c.ledger.InFlight(),
		Unassigned:          c.ledger.Unassigned(),
		Admitted:            c.admitted.Load(),
		RejectedProbability: c.rejectedProb.Load(),
		RejectedRate:        c.rejectedRate.Load(),
		Shed:                c.ledger.Counts().Shed,
		WorkersOnline:       c.reg.CountConnected(),
		Buckets:             c.bucketSnapshot(c.clk.Now()),
	}
	s.FleetSamples, s.MedianExecSeconds, _ = c.FleetModel()
	s.CapacityPerSec = capacity(s.WorkersOnline, s.MedianExecSeconds)
	return s
}

// CapacityPerSec estimates the fleet's service rate: online workers over
// the fleet's median service time, 0 while the model is cold.
func (c *Controller) CapacityPerSec() float64 {
	_, median, _ := c.FleetModel()
	return capacity(c.reg.CountConnected(), median)
}

// capacity is workers over median, 0 for a cold model (median 0).
func capacity(workers int, median float64) float64 {
	if median <= 0 {
		return 0
	}
	return float64(workers) / median
}

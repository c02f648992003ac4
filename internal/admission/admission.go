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
// The load signals are the engine's own: the controller reads the
// event.Ledger the engine folds from its spine (Attach), and its Tap adds
// only the pooled execution-time model, so it never polls or locks the
// engine. Every decision is typed (Decision / Status) and
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
	"react/internal/powerlaw"
	"react/internal/taskq"
)

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
	// Clock supplies time for bucket refill, sojourn measurement, and
	// probability horizons. The engine fills in its own when unset; a
	// bare controller defaults to the system clock.
	Clock clock.Clock
	// ProbFloor rejects tasks whose predicted deadline-meeting
	// probability falls below it. 0 disables the gate; 0.2 is a
	// reasonable production floor.
	ProbFloor float64
	// MinSamples is how many fleet execution-time samples the estimator
	// needs before the probability gate activates (cold starts admit
	// optimistically). Default 30.
	MinSamples int
	// MaxInflight caps the live (unassigned + assigned) population as
	// observed from the spine. 0 disables the ceiling.
	MaxInflight int
	// RequesterRate is each requester's sustained submissions/second;
	// RequesterBurst the bucket capacity (default 2×rate, minimum 1).
	// Rate 0 disables per-requester limiting.
	RequesterRate  float64
	RequesterBurst float64
	// ShedTarget is the CoDel sojourn target for the oldest unassigned
	// task (default 5s); ShedInterval the initial drop interval
	// (default 500ms). ShedTarget < 0 disables shedding.
	ShedTarget   time.Duration
	ShedInterval time.Duration
	// Workers reports the online worker count for the capacity estimate;
	// the engine fills in its registry's CountConnected when unset. Nil
	// on a bare controller treats capacity as unknown: the probability
	// gate then ignores queue delay.
	Workers func() int
}

func (c Config) normalize() Config {
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 30
	}
	if c.ShedTarget == 0 {
		c.ShedTarget = 5 * time.Second
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 500 * time.Millisecond
	}
	if c.RequesterRate > 0 && c.RequesterBurst < 1 {
		c.RequesterBurst = 2 * c.RequesterRate
		if c.RequesterBurst < 1 {
			c.RequesterBurst = 1
		}
	}
	return c
}

// Controller is one region's admission plane. All methods are safe for
// concurrent use; Decide and Tap touch disjoint locks from the engine's,
// so neither can extend a scheduling critical section.
type Controller struct {
	cfg Config
	clk clock.Clock

	// ledger is where the load signals — live population, unassigned
	// backlog, shed count — are read: the attached engine's, so the gates
	// and Stats can never disagree, and recovery seeds one. Empty until
	// Attach.
	ledger *event.Ledger

	// fitMu guards the pooled fleet execution-time fitter. Tap updates
	// it on every completion; Decide reads a Model from it.
	fitMu sync.Mutex
	fit   powerlaw.Fitter

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

// New creates a controller reading an empty ledger. The one a region runs
// is built and attached by engine.New, from engine.Config.Admission.
func New(cfg Config) *Controller {
	cfg = cfg.normalize()
	return &Controller{cfg: cfg, clk: cfg.Clock, ledger: new(event.Ledger), buckets: make(map[string]*bucket)}
}

// Config reports the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Attach points the load signals at l, the ledger of the engine this
// controller fronts. Call it before traffic starts, alongside tapping Tap
// into the same engine's spine.
func (c *Controller) Attach(l *event.Ledger) { c.ledger = l }

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
	c.fitMu.Lock()
	n := c.fit.N()
	model, err := c.fit.Model()
	c.fitMu.Unlock()
	if n < c.cfg.MinSamples || err != nil {
		return 0, false
	}
	budget := ttd.Seconds()
	if c.cfg.Workers != nil {
		if w := c.cfg.Workers(); w > 0 {
			budget -= float64(c.ledger.Unassigned()) / float64(w) * model.Median()
		} else {
			// No workers online: nothing can be served before any deadline.
			return 0, true
		}
	}
	if budget <= 0 {
		return 0, true
	}
	return model.ProbMeetDeadline(budget), true
}

// drainHint sizes the retry-after for a capacity rejection: one median
// service time (the cadence at which in-flight slots free up), or a
// conservative constant while the model is cold.
func (c *Controller) drainHint() time.Duration {
	c.fitMu.Lock()
	n := c.fit.N()
	model, err := c.fit.Model()
	c.fitMu.Unlock()
	if n < c.cfg.MinSamples || err != nil {
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

// FleetModel reports the pooled execution-time model: sample count, and
// — once warm — the median service time in seconds. ok is false while
// the model is cold (below MinSamples or unfittable).
func (c *Controller) FleetModel() (samples int, medianSeconds float64, ok bool) {
	c.fitMu.Lock()
	samples = c.fit.N()
	model, err := c.fit.Model()
	c.fitMu.Unlock()
	if err != nil || samples < c.cfg.MinSamples {
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
		Buckets:             c.bucketSnapshot(c.clk.Now()),
	}
	if c.cfg.Workers != nil {
		s.WorkersOnline = c.cfg.Workers()
	}
	samples, median, warm := c.FleetModel()
	s.FleetSamples = samples
	if warm {
		s.MedianExecSeconds = median
		if median > 0 {
			s.CapacityPerSec = float64(s.WorkersOnline) / median
		}
	}
	return s
}

package engine

import (
	"time"

	"react/internal/profile"
	"react/internal/taskq"
)

// This file is REACT's Dynamic Assignment Component (§III.A, §IV.B): it
// watches every executing task and, using only the worker's profile,
// estimates Eq. 2 — the probability that the execution time lands between
// the time already elapsed and the time remaining to the deadline. When
// that probability drops below a threshold (10% in the paper's
// experiments) the worker has almost certainly delayed or abandoned the
// task, and the sweep the engine's poll runs removes the assignment so the
// next round can find a better match while there is still time.

// DefaultThreshold is the reassignment probability bound used in §V.C.
const DefaultThreshold = 0.10

// Monitor holds the reassignment policy. The zero value uses the paper's
// settings after Normalize. Eq. 2 trusts a worker's model once it has
// profile.DefaultMinHistory samples, the paper's training threshold.
type Monitor struct {
	Threshold float64 // reassign below this Eq. 2 value (0: the paper's 0.1; negative: monitor off)
}

// Normalize fills zero fields with the paper's defaults.
func (m Monitor) Normalize() Monitor {
	if m.Threshold == 0 {
		m.Threshold = DefaultThreshold
	}
	return m
}

// Reason explains a Decision.
type Reason string

// Decision reasons, in the order the monitor checks them.
const (
	// ReasonNoWorker marks tasks whose worker left the system entirely;
	// they are reassigned unless already expired.
	ReasonNoWorker  Reason = "worker departed"
	ReasonNoHistory Reason = "insufficient history" // training phase, model inactive
	ReasonExpired   Reason = "deadline expired"     // no worker can do better now
	ReasonHealthy   Reason = "probability above threshold"
	ReasonReassign  Reason = "probability below threshold"
)

// Decision is the monitor's verdict for one executing task.
type Decision struct {
	TaskID      string
	Worker      string
	Probability float64 // Eq. 2 value (NaN-free; 0 when not computed)
	Reassign    bool
	Reason      Reason
}

// Evaluate applies Eq. 2 to one assigned record at the given instant.
// p must be the profile of rec.Worker.
func (m Monitor) Evaluate(p *profile.Profile, rec taskq.Record, now time.Time) Decision {
	m = m.Normalize()
	d := Decision{TaskID: rec.Task.ID, Worker: rec.Worker}
	model, ok := p.Model(profile.DefaultMinHistory)
	if !ok {
		// Training phase: "the first 3 tasks in every worker are not going
		// to be reassigned so as to train the system" (§V.C).
		d.Reason = ReasonNoHistory
		return d
	}
	if !rec.Task.Deadline.After(now) {
		// Past the deadline no other worker has a better probability of
		// making it, so reassignment is pointless (§V.C, Greedy analysis).
		d.Reason = ReasonExpired
		return d
	}
	elapsed := now.Sub(rec.AssignedAt).Seconds()
	ttd := rec.Task.Deadline.Sub(rec.AssignedAt).Seconds()
	d.Probability = model.ProbWindow(elapsed, ttd)
	if d.Probability < m.Threshold {
		d.Reassign = true
		d.Reason = ReasonReassign
	} else {
		d.Reason = ReasonHealthy
	}
	return d
}

// AssignedSource is the executing-task snapshot the sweep walks; satisfied
// by the engine's TaskStore.
type AssignedSource interface {
	AssignedTasks() []taskq.Record
}

// Sweep evaluates every currently assigned task. Workers missing from the
// registry (departed mid-task) are reported for reassignment with
// ReasonNoWorker. A negative threshold turns the monitor off: Sweep then
// reads nothing and returns no decision.
func (m Monitor) Sweep(reg *profile.Registry, tm AssignedSource, now time.Time) []Decision {
	m = m.Normalize()
	if m.Threshold < 0 {
		return nil
	}
	records := tm.AssignedTasks()
	out := make([]Decision, 0, len(records))
	for _, rec := range records {
		p, ok := reg.Get(rec.Worker)
		if !ok {
			out = append(out, Decision{
				TaskID:   rec.Task.ID,
				Worker:   rec.Worker,
				Reassign: rec.Task.Deadline.After(now),
				Reason:   ReasonNoWorker,
			})
			continue
		}
		out = append(out, m.Evaluate(p, rec, now))
	}
	return out
}

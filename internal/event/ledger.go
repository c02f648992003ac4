package event

import (
	"slices"
	"sync/atomic"
	"time"

	"react/internal/taskq"
)

// Tally is a Ledger's lifecycle counters as a plain value: what
// engine.Stats reports and what a journal snapshot header persists (the
// JSON keys are that file format; docs/PERSISTENCE.md).
type Tally struct {
	Received   int64 `json:"received"`
	Assigned   int64 `json:"assigned"` // bindings the transport accepted
	Completed  int64 `json:"completed"`
	OnTime     int64 `json:"on_time"`
	Expired    int64 `json:"expired"`
	Shed       int64 `json:"shed,omitempty"` // subset of Expired
	Reassigned int64 `json:"reassigned"`
}

// revokeCauses are the revocation causes a Ledger also counts one by one.
var revokeCauses = [...]string{taskq.CauseEq2, taskq.CauseDetach, taskq.CauseDeregister,
	taskq.CauseRecoverySweep, taskq.CauseUndeliverable}

// LossKind names why a task missed its deadline. The terminal event's own
// record decides it: whether the task expired or completed late, and how
// many assignments it was granted — every attempt before the last ended in
// a revocation, and a binding the transport refused counts as an attempt.
type LossKind string

// The loss kinds, from the scheduler's point of view.
const (
	// LossQueued: the task expired without any worker ever holding it —
	// matcher queueing, worker shortage (Greedy's collapse mode) or the
	// admission plane's shedder.
	LossQueued LossKind = "expired-in-queue"
	// LossAbandoned: a single worker held it to a late completion and the
	// monitor never intervened — undetected delay (Traditional's mode).
	LossAbandoned LossKind = "late-never-rescued"
	// LossRescueLate: revoked at least once but the final worker still
	// finished late — rescue started too late or repeated delays.
	LossRescueLate LossKind = "late-despite-rescue"
	// LossRescueExpired: assigned at least once and then expired without a
	// completion — rescue found no viable worker in time.
	LossRescueExpired LossKind = "expired-despite-rescue"
)

// LossKinds lists the kinds in report order.
var LossKinds = [...]LossKind{LossQueued, LossAbandoned, LossRescueLate, LossRescueExpired}

// Ledger folds the lifecycle event stream, and the KindBatch summaries of
// the scheduling rounds, into counters and load gauges.
// Observe is the only code in the tree that decides which event moves
// which counter: the live engine and journal replay each feed a Ledger and
// read it back, so a replayed log counts exactly what the live run
// counted, and the admission gates read the engine's. The zero value is
// ready. Every method is atomics only — Observe runs as a bus tap, under
// the task store's lock.
type Ledger struct {
	received, assigned, completed, onTime, expired, shed, reassigned atomic.Int64

	revoked           [len(revokeCauses)]atomic.Int64 // this process only; not persisted
	missed            [len(LossKinds)]atomic.Int64    // this process only; not persisted
	rounds, matcherNs atomic.Int64                    // this process only; not persisted
	unassigned        atomic.Int64                    // gauge: live tasks waiting in the pool
}

// Observe folds one event in. Forget events move nothing.
func (l *Ledger) Observe(ev Event) {
	switch ev.Kind {
	case KindBatch:
		l.rounds.Add(1)
		l.matcherNs.Add(int64(ev.Batch.Elapsed))
	case KindSubmit:
		l.received.Add(1)
		l.unassigned.Add(1)
	case KindAssign:
		l.assigned.Add(1)
		l.unassigned.Add(-1)
	case KindRevoke:
		l.unassigned.Add(1)
		// A binding the transport refused was never an assignment; every
		// other cause (and a record older than the journal's cause field,
		// which carries none) took a task out of a worker's hands.
		if ev.Cause == taskq.CauseUndeliverable {
			l.assigned.Add(-1)
		} else {
			l.reassigned.Add(1)
		}
		if i := slices.Index(revokeCauses[:], ev.Cause); i >= 0 {
			l.revoked[i].Add(1)
		}
	case KindComplete:
		l.completed.Add(1)
		if ev.Record.MetDeadline() {
			l.onTime.Add(1)
		} else {
			l.miss(false, ev.Record.Attempts)
		}
	case KindExpire:
		l.expired.Add(1)
		l.miss(true, ev.Record.Attempts)
		if ev.Cause == taskq.CauseShed {
			l.shed.Add(1)
		}
		// Only a task that died waiting leaves the pool: one that expired
		// in a worker's hands (the end-of-run sweep) keeps its AssignedAt.
		if ev.Record.AssignedAt.IsZero() {
			l.unassigned.Add(-1)
		}
	}
}

// miss counts one terminal event that missed its deadline: an expiry, or a
// late completion after the given number of assignments.
func (l *Ledger) miss(expired bool, attempts int) {
	kind := LossRescueLate
	switch {
	case expired && attempts == 0:
		kind = LossQueued
	case expired:
		kind = LossRescueExpired
	case attempts == 1:
		kind = LossAbandoned
	}
	l.missed[slices.Index(LossKinds[:], kind)].Add(1)
}

// Counts snapshots the lifecycle counters.
func (l *Ledger) Counts() Tally {
	return Tally{
		Received:   l.received.Load(),
		Assigned:   l.assigned.Load(),
		Completed:  l.completed.Load(),
		OnTime:     l.onTime.Load(),
		Expired:    l.expired.Load(),
		Shed:       l.shed.Load(),
		Reassigned: l.reassigned.Load(),
	}
}

// Seed starts the ledger from recovered state, before traffic: the
// counters a replay produced and the restored store's unassigned count.
func (l *Ledger) Seed(t Tally, unassigned int) {
	l.received.Store(t.Received)
	l.assigned.Store(t.Assigned)
	l.completed.Store(t.Completed)
	l.onTime.Store(t.OnTime)
	l.expired.Store(t.Expired)
	l.shed.Store(t.Shed)
	l.reassigned.Store(t.Reassigned)
	l.unassigned.Store(int64(unassigned))
}

// InFlight is the live population: submitted and not yet terminal.
func (l *Ledger) InFlight() int64 {
	return l.received.Load() - l.completed.Load() - l.expired.Load()
}

// Unassigned is how many live tasks wait in the pool for a worker.
func (l *Ledger) Unassigned() int64 { return l.unassigned.Load() }

// Revoked reports how many revocations with the given taskq.Cause* were
// observed since the process started.
func (l *Ledger) Revoked(cause string) int64 {
	if i := slices.Index(revokeCauses[:], cause); i >= 0 {
		return l.revoked[i].Load()
	}
	return 0
}

// Rounds reports how many scheduling rounds were observed since the
// process started, and the matcher wall time they spent together.
func (l *Ledger) Rounds() (int64, time.Duration) {
	return l.rounds.Load(), time.Duration(l.matcherNs.Load())
}

// Missed reports how many tasks were observed missing their deadline in
// the given way since the process started.
func (l *Ledger) Missed(kind LossKind) int64 {
	if i := slices.Index(LossKinds[:], kind); i >= 0 {
		return l.missed[i].Load()
	}
	return 0
}

// Package taskq is the vocabulary of REACT's Task Management Component
// (§III.A): the task a requester submits, the record the engine keeps for
// it, its lifecycle states, the errors a lifecycle operation reports, and
// the causes a lifecycle event carries. The registry itself is
// engine.TaskStore, which publishes every mutation on the event spine.
package taskq

import (
	"errors"
	"fmt"
	"time"

	"react/internal/region"
)

// Status is a task's lifecycle state.
type Status int

// Task lifecycle: submitted tasks are Unassigned until the scheduler matches
// them, may bounce between Assigned and Unassigned on reassignment, and
// terminate as Completed (result delivered) or Expired (deadline passed).
const (
	Unassigned Status = iota
	Assigned
	Completed
	Expired
)

// String names the status for logs and tables.
func (s Status) String() string {
	switch s {
	case Unassigned:
		return "unassigned"
	case Assigned:
		return "assigned"
	case Completed:
		return "completed"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Task is the requester-supplied description of a unit of crowd work
// (§III.B): ⟨id, latitude, longitude, deadline, reward, description⟩ plus
// the category used by the quality weight function.
type Task struct {
	ID          string
	Location    region.Point
	Deadline    time.Time // absolute instant the soft deadline expires
	Reward      float64
	Category    string
	Description string
	Submitted   time.Time
}

// Record is the registry's view of a task: the task itself plus assignment
// bookkeeping.
type Record struct {
	Task       Task
	Status     Status
	Worker     string    // current or last worker ("" if never assigned)
	AssignedAt time.Time // zero unless Status == Assigned
	FinishedAt time.Time // zero unless terminal
	Attempts   int       // number of assignments performed (≥1 after first)
	Graded     bool      // requester feedback already recorded
}

// Errors reported by the task registry's lifecycle operations.
var (
	ErrDuplicateTask = errors.New("taskq: duplicate task id")
	ErrUnknownTask   = errors.New("taskq: unknown task id")
	ErrBadState      = errors.New("taskq: operation invalid in current status")
	ErrPastDeadline  = errors.New("taskq: deadline not after submission")
)

// Cause vocabulary for event.Event.Cause: why a mutation happened. The
// registry stamps the kinds it decides itself (submissions, completions,
// expiry); callers of Unassign supply the revocation causes, since only
// the component taking the assignment back knows why.
const (
	CauseSubmit        = "submit"         // requester submitted the task
	CauseBatch         = "batch"          // a scheduling round applied the binding
	CauseWorker        = "worker"         // the worker reported a completion
	CauseEq2           = "eq2"            // the Eq. 2 monitor predicted a deadline miss
	CauseDetach        = "detach"         // the holder's connection dropped
	CauseDeregister    = "deregister"     // the holder left the platform entirely
	CauseUndeliverable = "undeliverable"  // transport refused the fresh assignment
	CauseRecoverySweep = "recovery-sweep" // crash recovery returned an orphaned binding
	CauseDeadline      = "deadline"       // the task's deadline passed
	CauseRetention     = "retention"      // retention GC dropped a terminal record
	CauseShed          = "shed"           // admission control shed the task under overload
)

// MetDeadline reports whether a completed record finished at or before its
// deadline.
func (r Record) MetDeadline() bool {
	return r.Status == Completed && !r.FinishedAt.After(r.Task.Deadline)
}

// ExecTime is ExecTime_ij: assignment to completion, 0 for non-terminal or
// never-assigned records.
func (r Record) ExecTime() time.Duration {
	if r.FinishedAt.IsZero() || r.AssignedAt.IsZero() {
		return 0
	}
	return r.FinishedAt.Sub(r.AssignedAt)
}

// TotalTime is the requester-visible latency: submission to completion.
func (r Record) TotalTime() time.Duration {
	if r.FinishedAt.IsZero() {
		return 0
	}
	return r.FinishedAt.Sub(r.Task.Submitted)
}

// Package journal makes a region server's scheduling state durable: a
// per-shard-ordered write-ahead log of task-lifecycle mutations plus
// periodic snapshot compaction, so a crashed reactd restarts with every
// in-flight task instead of relying on clients to resubmit.
//
// The design splits into three layers:
//
//   - Records (this file): each WAL entry carries the FULL post-mutation
//     task record — physiological redo logging — so replay is a pure
//     upsert. No replayed operation can fail a lifecycle check, no clock
//     needs rewinding, and the final state of a task is simply its last
//     record. Per-task ordering is guaranteed at the source: taskq emits
//     events under the shard mutex, before the mutating call returns.
//     On disk a record is JSON, byte for byte what encoding/json makes of
//     the struct, but written and read by a hand-written codec (codec.go)
//     that allocates nothing on the append path and hands whatever falls
//     outside its canonical form — an escaped string, a hand-edited log —
//     to encoding/json: one format, two implementations of it.
//   - Framing and the WAL (frame.go, store.go): length-prefixed,
//     CRC32C-checked frames appended to segment files with group-commit
//     fsync batching. Recovery distinguishes a torn tail (the crash
//     window — truncated and reported) from mid-log corruption (valid
//     frames found beyond the damage — refused loudly).
//   - Snapshots and compaction (snapshot.go, rebuild.go): a snapshot is
//     always produced by replaying sealed, immutable segments offline —
//     never by racing a live engine — so it is exact at a known sequence
//     boundary and recovery applies only records strictly after it. The
//     rebuild runs on the flusher goroutine, so while it lasts the loss
//     window is that compaction, not one fsync interval; sealing, carrying
//     on committing, and rebuilding beside it is the follow-up
//     (docs/PERSISTENCE.md, Durability policy).
package journal

import (
	"fmt"

	"react/internal/event"
	"react/internal/taskq"
)

// Kind discriminates WAL records.
type Kind uint8

// Record kinds. The task-lifecycle kinds (Submit through Forget) mirror
// taskq.EventKind and carry the full record; Feedback, Attach, and
// Deregister are engine-level facts the task store cannot observe.
const (
	KindSubmit Kind = iota + 1
	KindAssign
	KindUnassign
	KindComplete
	KindExpire
	KindForget
	KindFeedback
	KindAttach
	KindDeregister
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindAssign:
		return "assign"
	case KindUnassign:
		return "unassign"
	case KindComplete:
		return "complete"
	case KindExpire:
		return "expire"
	case KindForget:
		return "forget"
	case KindFeedback:
		return "feedback"
	case KindAttach:
		return "attach"
	case KindDeregister:
		return "deregister"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one WAL entry. Seq is assigned by the store at append time and
// is strictly contiguous within a log: recovery treats a gap as data loss
// and refuses to start.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`

	// Task carries the full post-mutation record for the task-lifecycle
	// kinds (nil for KindForget and the worker-level kinds).
	Task *taskq.Record `json:"task,omitempty"`

	// Cause is the spine event's taskq.Cause* where counting depends on it:
	// every KindUnassign, and a KindExpire the deadline did not cause (a
	// shed). Absent everywhere else, and in logs older than the field.
	Cause string `json:"cause,omitempty"`

	// TaskID identifies the subject of KindForget and KindFeedback.
	TaskID string `json:"task_id,omitempty"`

	// Worker-level fields: KindFeedback credits Worker's accuracy in
	// Category; KindAttach registers Worker at (Lat, Lon); KindDeregister
	// removes Worker and its history.
	Worker   string  `json:"worker,omitempty"`
	Category string  `json:"category,omitempty"`
	Positive bool    `json:"positive,omitempty"`
	Lat      float64 `json:"lat,omitempty"`
	Lon      float64 `json:"lon,omitempty"`
}

// FromEvent derives the WAL record for a spine event. The second return
// is false for events that are not journaled (scheduling-round
// summaries): batches are recomputed, not replayed. The event's Record
// is the full post-mutation state, so the WAL entry is exactly the
// physiological redo payload replay needs. (Assign-then-return keeps it
// inlinable, so a caller that only inspects the result never allocates rec.)
func FromEvent(ev event.Event) (Record, bool) {
	rec := ev.Record
	r := Record{Task: &rec}
	switch ev.Kind {
	case event.KindSubmit:
		r.Kind = KindSubmit
	case event.KindAssign:
		r.Kind = KindAssign
	case event.KindRevoke:
		r.Kind, r.Cause = KindUnassign, ev.Cause
	case event.KindComplete:
		r.Kind = KindComplete
	case event.KindExpire:
		r.Kind = KindExpire
		if ev.Cause != taskq.CauseDeadline {
			r.Cause = ev.Cause
		}
	case event.KindForget:
		return Record{Kind: KindForget, TaskID: ev.Task}, true
	default:
		return Record{}, false
	}
	return r, true
}

// event is FromEvent's inverse for the five task-state kinds: the spine
// event a replayed record stands for, as far as event.Ledger.Observe
// reads it (kind, cause, post-mutation record).
func (r Record) event() event.Event {
	kinds := [...]event.Kind{KindSubmit: event.KindSubmit, KindAssign: event.KindAssign,
		KindUnassign: event.KindRevoke, KindComplete: event.KindComplete, KindExpire: event.KindExpire}
	return event.Event{Kind: kinds[r.Kind], Task: r.Task.Task.ID, Cause: r.Cause, Record: *r.Task}
}

// validate rejects records that could not be replayed.
func (r Record) validate() error {
	switch r.Kind {
	case KindSubmit, KindAssign, KindUnassign, KindComplete, KindExpire:
		if r.Task == nil || r.Task.Task.ID == "" {
			return fmt.Errorf("journal: %v record without task state", r.Kind)
		}
	case KindForget, KindFeedback:
		if r.TaskID == "" {
			return fmt.Errorf("journal: %v record without task id", r.Kind)
		}
	case KindAttach, KindDeregister:
		if r.Worker == "" {
			return fmt.Errorf("journal: %v record without worker id", r.Kind)
		}
	default:
		return fmt.Errorf("journal: unknown record kind %d", int(r.Kind))
	}
	return nil
}

// Package journal makes a region server's scheduling state durable: a
// store-ordered write-ahead log of the engine's event spine plus
// periodic snapshot compaction, so a crashed reactd restarts with every
// in-flight task and every learned worker profile instead of relying on
// clients to resubmit.
//
// The design splits into three layers:
//
//   - Records (this file): one record per spine event, made by FromEvent
//     and nowhere else; the record kind is the event.Kind. A task-state
//     record carries the FULL post-mutation task record — physiological
//     redo logging — so replay is a pure upsert. No replayed operation can
//     fail a lifecycle check, no clock needs rewinding, and the final state
//     of a task is simply its last record. Ordering is guaranteed at the
//     source: the task store publishes events under its mutex, before the
//     mutating call returns. Replay (rebuild.go) feeds records back, as
//     events, through the same folds the live engine taps.
//     On disk a record is JSON, byte for byte what encoding/json makes of
//     the struct, but written and read by a hand-written codec (codec.go)
//     that allocates nothing on the append path and hands whatever falls
//     outside its canonical form — an escaped string, a hand-edited log —
//     to encoding/json: one format, two implementations of it.
//   - Framing and the WAL (frame.go, store.go): length-prefixed,
//     CRC32C-checked frames appended to segment files with group-commit
//     fsync batching, and read back by one walker that streams a file
//     through a bounded buffer. Recovery distinguishes a torn tail (the
//     crash window — truncated and reported) from mid-log corruption (valid
//     frames found beyond the damage — refused loudly).
//   - Snapshots and compaction (snapshot.go, rebuild.go): a snapshot is
//     always produced by replaying sealed, immutable segments offline —
//     never by racing a live engine — so it is exact at a known sequence
//     boundary and recovery applies only records strictly after it. A
//     segment is sealed once it is as large as the last snapshot (or
//     Options.CompactBytes), so a compaction writes no more than was
//     appended since the last one; the flusher only seals, and the rebuild
//     runs on a goroutine of its own beside the commits, so the loss window
//     stays one fsync interval (docs/PERSISTENCE.md).
package journal

import (
	"fmt"

	"react/internal/event"
	"react/internal/region"
	"react/internal/taskq"
)

// Record is one WAL entry: one spine event, with the event's kind as the
// record kind (event.KindSubmit through event.KindDeregister; batch
// summaries are recomputed, not journaled). Seq is assigned by the store
// at append time and is strictly contiguous within a log: recovery treats
// a gap as data loss and refuses to start.
type Record struct {
	Seq  uint64     `json:"seq"`
	Kind event.Kind `json:"kind"`

	// Task carries the full post-mutation record for the task-lifecycle
	// kinds (nil for KindForget and the worker-level kinds).
	Task *taskq.Record `json:"task,omitempty"`

	// Cause is the spine event's taskq.Cause* where counting depends on it:
	// every KindRevoke, and a KindExpire the deadline did not cause (a
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
// summaries): batches are recomputed, not replayed. A task-state event's
// Record is the full post-mutation state, so the WAL entry is exactly the
// physiological redo payload replay needs; forget and the worker-level
// kinds carry their arguments instead. (The shape — assign, fall through,
// bare return — keeps it inlinable, so a caller that only inspects the
// result never allocates rec.)
func FromEvent(ev event.Event) (r Record, ok bool) {
	rec := ev.Record
	r = Record{Kind: ev.Kind, Task: &rec}
	switch ev.Kind {
	case event.KindSubmit, event.KindAssign, event.KindComplete:
	case event.KindRevoke, event.KindExpire:
		if ev.Cause != taskq.CauseDeadline { // never a revocation's cause
			r.Cause = ev.Cause
		}
	case event.KindFeedback, event.KindAttach, event.KindDeregister:
		r = Record{Kind: ev.Kind, Worker: ev.Worker, Category: rec.Task.Category,
			Positive: ev.Positive, Lat: ev.Loc.Lat, Lon: ev.Loc.Lon}
		fallthrough
	case event.KindForget:
		r.Task, r.TaskID = nil, ev.Task
	default:
		return // not journaled
	}
	return r, true
}

// event is FromEvent's inverse: the spine event a replayed record stands
// for, as far as the folds replay runs (event.Ledger.Observe,
// profile.Registry.Observe) read it.
func (r Record) event() event.Event {
	ev := event.Event{Kind: r.Kind, Task: r.TaskID, Worker: r.Worker, Cause: r.Cause,
		Loc: region.Point{Lat: r.Lat, Lon: r.Lon}, Positive: r.Positive}
	ev.Record.Task.Category = r.Category
	if r.Task != nil {
		ev.Task, ev.Worker, ev.Record = r.Task.Task.ID, r.Task.Worker, *r.Task
	}
	return ev
}

// validate rejects records that could not be replayed.
func (r Record) validate() error {
	switch r.Kind {
	case event.KindSubmit, event.KindAssign, event.KindRevoke, event.KindComplete, event.KindExpire:
		if r.Task == nil || r.Task.Task.ID == "" {
			return fmt.Errorf("journal: %v record without task state", r.Kind)
		}
	case event.KindForget, event.KindFeedback:
		if r.TaskID == "" {
			return fmt.Errorf("journal: %v record without task id", r.Kind)
		}
	case event.KindAttach, event.KindDeregister:
		if r.Worker == "" {
			return fmt.Errorf("journal: %v record without worker id", r.Kind)
		}
	default:
		return fmt.Errorf("journal: unknown record kind %d", int(r.Kind))
	}
	return nil
}

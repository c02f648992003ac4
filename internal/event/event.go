// Package event is REACT's typed event spine: one Event vocabulary for
// every mutation a task undergoes (submit → assign → revoke/reassign →
// complete/expire → forget, §III.A), for the worker-level facts the
// Profiling Component learns from (attach, requester feedback,
// deregister), and for the per-round scheduling summary, fanned out from
// a single Bus that every consumer — the write-ahead journal, the worker
// profiles, the /trace.csv ring, the observability collectors, the wire
// protocol's watch-events stream — shares. Every durable fact is an
// event: the journal has no other writer.
//
// Ordering contract: task-lifecycle events are published by the engine's
// task store (engine.TaskStore) while its one mutex is held, so no second
// mutation can begin until the first has been sequenced. Seq is a single
// bus-wide counter, and lifecycle events reach every tap in strictly
// increasing Seq, across tasks as well as within one: Seq order is the
// order the store applied the mutations and the order the journal writes
// them. The worker-level kinds and the round summary are published by the
// engine call that made the change, after it took effect and with no store
// lock held, so their Seq may fall between lifecycle events published
// concurrently.
//
// Delivery contract: taps (Bus.Tap) are synchronous and lossless — they
// run inside the publishing call, under the store lock for lifecycle
// events, and therefore must be fast, non-blocking, and must never call
// back into the engine. Subscriptions (Bus.Subscribe) are asynchronous
// and bounded: publishing never blocks on a slow subscriber; events that
// do not fit the buffer are dropped and counted. Consumers that cannot
// tolerate loss (the journal) tap; consumers that tolerate gaps in
// exchange for isolation (sockets, loggers) subscribe. docs/EVENTS.md
// has the full contract.
package event

import (
	"fmt"
	"time"

	"react/internal/region"
	"react/internal/taskq"
)

// Kind classifies a spine event. The numbers of the journaled kinds (1–9)
// are the write-ahead journal's on-disk record kinds, so they never move.
type Kind uint8

// The event vocabulary. The task-lifecycle kinds (Submit through Forget)
// are the task store's mutations and carry the full post-mutation record.
// Feedback, Attach and Deregister are worker-level facts the task store
// cannot observe. Batch summarizes one scheduling round and carries
// BatchStats instead; it is not journaled.
const (
	KindSubmit     Kind = iota + 1 // task entered the repository
	KindAssign                     // scheduler bound the task to a worker
	KindRevoke                     // assignment taken back (see Event.Cause)
	KindComplete                   // worker delivered an answer
	KindExpire                     // deadline passed; task left unserved
	KindForget                     // terminal record garbage-collected
	KindFeedback                   // requester graded a completed task
	KindAttach                     // worker registered or came back
	KindDeregister                 // worker left, with its history
	KindBatch                      // one scheduling round ran
)

// String names the kind for logs, CSV, and the wire protocol.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindAssign:
		return "assign"
	case KindRevoke:
		return "revoke"
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
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Lifecycle reports whether the kind narrates one task's lifecycle (as
// opposed to a worker-level fact or a scheduling-round summary).
func (k Kind) Lifecycle() bool { return k >= KindSubmit && k <= KindForget }

// Terminal reports whether the kind ends a task's timeline: after a
// Complete, Expire, or Forget no further lifecycle event for that task
// can follow (Forget only ever trails a terminal state).
func (k Kind) Terminal() bool {
	return k == KindComplete || k == KindExpire || k == KindForget
}

// BatchStats describes one completed scheduling round (KindBatch).
type BatchStats struct {
	Workers     int           // available workers in the snapshot
	Tasks       int           // unassigned tasks in the snapshot
	Edges       int           // edges instantiated by Eq. 3 construction
	PrunedProb  int           // edges dropped by the probability bound
	Cycles      int           // matcher iterations consumed
	Assignments int           // bindings the matcher proposed
	Elapsed     time.Duration // measured matcher wall time
	Latency     time.Duration // modelled latency charged via Config.Defer (0 live)
}

// Event is one spine event. Lifecycle kinds fill Task/Worker/Record;
// Feedback fills Task/Worker/Positive/Record; Attach fills Worker/Loc and
// Deregister Worker alone; KindBatch fills Batch and leaves the task
// fields zero.
type Event struct {
	// Seq is stamped by the bus at publish time: strictly increasing,
	// totally ordered per task (see the package ordering contract).
	Seq  uint64
	Kind Kind
	// Task is the subject task's id ("" for KindBatch and the worker-level
	// Attach/Deregister).
	Task string
	// Worker is the worker involved: the assignee on Assign, the holder
	// whose binding was taken on Revoke, the answerer on Complete, the
	// last holder (possibly "") on Expire/Forget, the graded worker on
	// Feedback, the subject of Attach/Deregister.
	Worker string
	// At is the instant the mutation took effect, read from the engine's
	// injected clock — identical between a live run and a virtual-clock
	// replay of the same schedule.
	At time.Time
	// Cause says why the event happened (the taskq.Cause* vocabulary):
	// which component revoked an assignment, whether an expiry was the
	// deadline's doing or admission control's.
	Cause string
	// Prob is the Eq. 2 completion probability that triggered a
	// CauseEq2 revocation (0 otherwise).
	Prob float64
	// Record is the full post-mutation task record (for KindForget, as it
	// stood just before removal) — the same physiological payload the
	// journal persists, so any consumer can derive state without replay.
	Record taskq.Record
	// Loc is where an attaching worker says it is (KindAttach only; an
	// invalid point keeps a returning worker's last location).
	Loc region.Point
	// Positive is the requester's verdict (KindFeedback only).
	Positive bool
	// Batch is non-nil only for KindBatch.
	Batch *BatchStats
}

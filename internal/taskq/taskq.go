// Package taskq is REACT's Task Management Component (§III.A): the
// authoritative registry of every task submitted to a region server. It
// tracks each task's assignment state, the time elapsed since assignment,
// the remaining time to its deadline, and expiry. The Scheduling Component
// reads the unassigned set from here; the Dynamic Assignment Component
// returns tasks here when it predicts a deadline miss.
package taskq

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"react/internal/clock"
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

// Record is the manager's view of a task: the task itself plus assignment
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

// Errors reported by the manager.
var (
	ErrDuplicateTask = errors.New("taskq: duplicate task id")
	ErrUnknownTask   = errors.New("taskq: unknown task id")
	ErrBadState      = errors.New("taskq: operation invalid in current status")
	ErrPastDeadline  = errors.New("taskq: deadline not after submission")
)

// EventKind names a state mutation reported to the manager's sink.
type EventKind uint8

// The task-lifecycle mutations a sink observes. Every kind carries the
// full post-mutation record, so a consumer can treat the stream as a
// per-task sequence of states rather than reconstructing transitions.
const (
	EvSubmit EventKind = iota + 1
	EvAssign
	EvUnassign
	EvComplete
	EvExpire
	EvForget
)

// Cause vocabulary for Event.Cause: why a mutation happened. The manager
// stamps the kinds it decides itself (submissions, completions, expiry);
// callers of Unassign supply the revocation causes, since only the
// component taking the assignment back knows why.
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

// Event is one observed mutation: the kind plus a copy of the record as it
// stands after the mutation (for EvForget, as it stood just before removal),
// annotated with when it took effect, which worker was involved, and why.
type Event struct {
	Kind   EventKind
	Record Record
	// At is the instant the mutation took effect, read from the manager's
	// clock under the same mutex hold that applied it.
	At time.Time
	// Worker is the worker involved: the assignee on EvAssign, the holder
	// whose binding was revoked on EvUnassign (Record.Worker is already
	// cleared by then), the answerer on EvComplete, the last holder on
	// EvExpire/EvForget ("" if the task never reached a worker).
	Worker string
	// Cause is one of the Cause* constants above.
	Cause string
	// Prob is the Eq. 2 completion probability behind a CauseEq2
	// revocation (0 otherwise).
	Prob float64
}

// entry is a record plus its place in the manager's status index.
type entry struct {
	Record
	// pos is the entry's index in Manager.live[Status] while the task is
	// Unassigned or Assigned, and in Manager.done once it is terminal.
	pos int
}

// doneHeap orders terminal entries by (FinishedAt, ID), oldest on top, so
// retention pops exactly the records it drops. It implements
// heap.Interface and keeps every entry's pos current.
type doneHeap []*entry

func (h doneHeap) Len() int { return len(h) }
func (h doneHeap) Less(i, j int) bool {
	if !h[i].FinishedAt.Equal(h[j].FinishedAt) {
		return h[i].FinishedAt.Before(h[j].FinishedAt)
	}
	return h[i].Task.ID < h[j].Task.ID
}
func (h doneHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *doneHeap) Push(x any) {
	e := x.(*entry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *doneHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// Manager is the Task Management Component. It is safe for concurrent use.
//
// Every record sits in exactly one index besides the id map: the unordered
// set of its live status (live[Unassigned], live[Assigned]) or the terminal
// heap. The periodic passes — the scheduler's and shedder's Unassigned, the
// monitor's AssignedTasks, expiry, retention — walk only their index, so
// they cost what is live or due, never what is retained.
type Manager struct {
	clk     clock.Clock
	mu      sync.Mutex
	records map[string]*entry
	live    [2][]*entry // by Status: Unassigned, Assigned
	done    doneHeap    // Completed and Expired
	counts  [4]int
	// unassignedHW is the peak unassigned backlog ever observed — the
	// quantity that reveals batch-trigger starvation or matcher collapse
	// on a dashboard long after the spike itself has drained.
	unassignedHW int
	// sink, when set, observes every lifecycle mutation. It is invoked
	// while m.mu is held, which is what gives a write-ahead log its
	// per-task total order: no second mutation of the same task can start
	// until the sink has sequenced the first. Implementations must be
	// fast, must not block, and must not call back into the manager.
	sink func(Event)
}

// NewManager creates a manager reading time from clk.
func NewManager(clk clock.Clock) *Manager {
	return &Manager{clk: clk, records: make(map[string]*entry)}
}

// SetSink installs the mutation observer (see Event). It must be set
// before traffic: the manager does not synchronize sink replacement with
// in-flight operations beyond its own mutex.
func (m *Manager) SetSink(fn func(Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink = fn
}

// emit reports a mutation to the sink. Callers hold m.mu.
func (m *Manager) emit(kind EventKind, e *entry, at time.Time, worker, cause string, prob float64) {
	if m.sink != nil {
		m.sink(Event{Kind: kind, Record: e.Record, At: at, Worker: worker, Cause: cause, Prob: prob})
	}
}

// index files e under its current status. A terminal entry is ordered by
// FinishedAt, which must be set first. Callers hold m.mu.
func (m *Manager) index(e *entry) {
	if e.Status > Assigned {
		heap.Push(&m.done, e)
		return
	}
	set := &m.live[e.Status]
	e.pos = len(*set)
	*set = append(*set, e)
}

// unindex takes a live entry out of its status set: the last element moves
// into its place. Terminal entries only ever leave through retention's
// heap.Pop. Callers hold m.mu.
func (m *Manager) unindex(e *entry) {
	set := &m.live[e.Status]
	last := len(*set) - 1
	moved := (*set)[last]
	(*set)[e.pos], moved.pos = moved, e.pos
	(*set)[last] = nil
	*set = (*set)[:last]
}

// insert registers a new entry: id map, status index, counts, high-water
// mark. Callers hold m.mu.
func (m *Manager) insert(e *entry) {
	m.records[e.Task.ID] = e
	m.index(e)
	m.counts[e.Status]++
	if m.counts[Unassigned] > m.unassignedHW {
		m.unassignedHW = m.counts[Unassigned]
	}
}

// Restore inserts a record verbatim — status, worker, timestamps, attempt
// and grading state — as recovery bulk-loads a journal snapshot into a
// fresh manager. It bypasses the lifecycle checks Submit enforces (a
// restored record may already be terminal) and emits no sink event: the
// journal already holds this state.
func (m *Manager) Restore(r Record) error {
	if r.Task.ID == "" {
		return fmt.Errorf("%w: restore with empty id", ErrUnknownTask)
	}
	if r.Status < Unassigned || r.Status > Expired {
		return fmt.Errorf("%w: restore %q with status %d", ErrBadState, r.Task.ID, int(r.Status))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.records[r.Task.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, r.Task.ID)
	}
	m.insert(&entry{Record: r})
	return nil
}

// Submit registers a new unassigned task. The task's Submitted field is
// stamped with the current instant; its deadline must lie in the future.
func (m *Manager) Submit(t Task) error {
	now := m.clk.Now()
	if !t.Deadline.After(now) {
		return fmt.Errorf("%w: task %q deadline %v at %v", ErrPastDeadline, t.ID, t.Deadline, now)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.records[t.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	t.Submitted = now
	r := &entry{Record: Record{Task: t, Status: Unassigned}}
	m.insert(r)
	m.emit(EvSubmit, r, now, "", CauseSubmit, 0)
	return nil
}

// Get returns a copy of the record for id.
func (m *Manager) Get(id string) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[id]
	if !ok {
		return Record{}, false
	}
	return r.Record, true
}

// Unassigned snapshots the tasks currently waiting for a worker, oldest
// submission first (stable order keeps batch construction deterministic).
func (m *Manager) Unassigned() []Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Task, 0, len(m.live[Unassigned]))
	for _, r := range m.live[Unassigned] {
		out = append(out, r.Task)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// UnassignedCount reports how many tasks await assignment — the batch
// trigger reads this every arrival.
func (m *Manager) UnassignedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[Unassigned]
}

// Assign binds an unassigned task to a worker, stamping AssignedAt.
func (m *Manager) Assign(taskID, workerID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Unassigned {
		return fmt.Errorf("%w: assign %q while %v", ErrBadState, taskID, r.Status)
	}
	m.transition(r, Assigned)
	r.Worker = workerID
	r.AssignedAt = m.clk.Now()
	r.Attempts++
	m.emit(EvAssign, r, r.AssignedAt, workerID, CauseBatch, 0)
	return nil
}

// Unassign returns an assigned task to the pool (worker abandoned it, or
// the Dynamic Assignment Component predicted a miss). The attempt count is
// preserved so profiles of flaky workers can be penalized by callers.
// cause says which component took the assignment back (one of the Cause*
// constants); prob is the Eq. 2 completion probability for CauseEq2
// revocations (0 otherwise). Both are carried on the emitted event.
func (m *Manager) Unassign(taskID, cause string, prob float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Assigned {
		return fmt.Errorf("%w: unassign %q while %v", ErrBadState, taskID, r.Status)
	}
	worker := r.Worker
	m.transition(r, Unassigned)
	r.Worker = ""
	r.AssignedAt = time.Time{}
	m.emit(EvUnassign, r, m.clk.Now(), worker, cause, prob)
	return nil
}

// Complete finishes an assigned task and returns the final record. The
// caller decides whether the completion beat the deadline via MetDeadline.
// A non-empty worker must be the current holder: the check shares the
// lock with the mutation, so a worker whose binding was revoked and
// handed to another cannot finish the new holder's. "" accepts any.
func (m *Manager) Complete(taskID, worker string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Assigned {
		return Record{}, fmt.Errorf("%w: complete %q while %v", ErrBadState, taskID, r.Status)
	}
	if worker != "" && r.Worker != worker {
		return Record{}, fmt.Errorf("%w: complete %q by %q, held by %q", ErrBadState, taskID, worker, r.Worker)
	}
	m.finish(r, Completed, m.clk.Now())
	m.emit(EvComplete, r, r.FinishedAt, r.Worker, CauseWorker, 0)
	return r.Record, nil
}

// ExpireDue transitions every non-terminal task whose deadline has passed
// to Expired and returns their records. REACT treats deadlines as soft, so
// an expired-while-assigned task is simply recorded as missed; the worker's
// eventual answer is discarded.
func (m *Manager) ExpireDue() []Record {
	return m.expire(true)
}

// ExpireUnassigned is ExpireDue restricted to tasks still waiting in the
// pool. The paper's evaluation uses this policy: a task already in a
// worker's hands runs to (possibly late) completion and is merely *counted*
// as missed, while a task nobody picked up by its deadline leaves the
// repository — the fate of the Greedy approach's queued tasks in §V.C.
func (m *Manager) ExpireUnassigned() []Record {
	return m.expire(false)
}

func (m *Manager) expire(includeAssigned bool) []Record {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	sets := m.live[:1]
	if includeAssigned {
		sets = m.live[:]
	}
	var due []*entry
	for _, set := range sets {
		for _, r := range set {
			if !r.Task.Deadline.After(now) {
				due = append(due, r)
			}
		}
	}
	if len(due) == 0 {
		return nil
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Task.ID < due[j].Task.ID })
	out := make([]Record, len(due))
	for i, r := range due {
		m.finish(r, Expired, now)
		m.emit(EvExpire, r, now, r.Worker, CauseDeadline, 0)
		out[i] = r.Record
	}
	return out
}

// Shed terminates an unassigned task before its deadline because admission
// control decided the pool can no longer plausibly serve it. The record
// lands in the same terminal state as a deadline expiry (Expired — the
// requester-visible outcome is identical: no answer arrived) but the
// emitted event carries CauseShed, so the spine, journal, and any tail
// watcher can attribute the loss to overload protection rather than the
// clock. Only unassigned tasks can be shed; a task already in a worker's
// hands runs to completion.
func (m *Manager) Shed(taskID string) (Record, error) {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Unassigned {
		return Record{}, fmt.Errorf("%w: shed %q while %v", ErrBadState, taskID, r.Status)
	}
	m.finish(r, Expired, now)
	m.emit(EvExpire, r, now, r.Worker, CauseShed, 0)
	return r.Record, nil
}

// AssignedTasks snapshots the records currently executing, for the dynamic
// assignment monitor.
func (m *Manager) AssignedTasks() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.live[Assigned]))
	for _, r := range m.live[Assigned] {
		out = append(out, r.Record)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task.ID < out[j].Task.ID })
	return out
}

// Counts reports how many tasks are in each state.
func (m *Manager) Counts() (unassigned, assigned, completed, expired int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[Unassigned], m.counts[Assigned], m.counts[Completed], m.counts[Expired]
}

// MarkGraded records that the requester's feedback for a completed task has
// been consumed, exactly once: a second call fails, protecting the Eq. 1
// accuracy counters from double grading.
func (m *Manager) MarkGraded(taskID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[taskID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTask, taskID)
	}
	if r.Status != Completed {
		return fmt.Errorf("%w: grade %q while %v", ErrBadState, taskID, r.Status)
	}
	if r.Graded {
		return fmt.Errorf("%w: %q already graded", ErrBadState, taskID)
	}
	r.Graded = true
	return nil
}

// ForgetTerminatedBefore drops every completed or expired task whose
// terminal instant precedes cutoff, returning how many were removed. A
// long-running server calls this periodically to bound registry memory;
// REACT's own components never read terminal records after the requester
// has been notified.
func (m *Manager) ForgetTerminatedBefore(cutoff time.Time) int {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for len(m.done) > 0 && m.done[0].FinishedAt.Before(cutoff) {
		r := heap.Pop(&m.done).(*entry)
		m.counts[r.Status]--
		delete(m.records, r.Task.ID)
		m.emit(EvForget, r, now, r.Worker, CauseRetention, 0)
		removed++
	}
	return removed
}

// transition moves a live record to status to, index and counts included.
// Callers hold m.mu.
func (m *Manager) transition(r *entry, to Status) {
	m.unindex(r)
	m.counts[r.Status]--
	m.counts[to]++
	r.Status = to
	m.index(r)
	if to == Unassigned && m.counts[Unassigned] > m.unassignedHW {
		m.unassignedHW = m.counts[Unassigned]
	}
}

// finish is transition to a terminal status: it stamps FinishedAt first,
// which is what orders the record in the terminal heap. Callers hold m.mu.
func (m *Manager) finish(r *entry, to Status, at time.Time) {
	r.FinishedAt = at
	m.transition(r, to)
}

// UnassignedHighWater reports the peak unassigned backlog this manager has
// ever held (submissions plus Eq. 2 / detach returns to the pool).
func (m *Manager) UnassignedHighWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unassignedHW
}

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

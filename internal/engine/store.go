package engine

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/taskq"
)

// TaskStore is REACT's Task Management Component (§III.A): the
// authoritative registry of every task submitted to the engine. It tracks
// each task's assignment state, the time elapsed since assignment, the
// remaining time to its deadline, and expiry. The Scheduling Component
// reads the unassigned set from here; the Dynamic Assignment Component
// returns tasks here when it predicts a deadline miss.
//
// It is one registry under one mutex, as the paper has one per region
// server; the repo scales by regions (wire.ServeGrid), not by striping a
// region's store. Every record sits in exactly one index besides the id
// map: the unordered set of its live status (live[Unassigned],
// live[Assigned]) or the terminal heap. The periodic passes — the
// scheduler's and shedder's Unassigned, the monitor's AssignedTasks,
// expiry, retention — walk only their index, so they cost what is live or
// due, never what is retained.
//
// Every lifecycle mutation is published on the engine's event bus while
// mu is held, so the order the bus stamps Seq in is the order the store
// applied the mutations, across tasks as well as within one: the order
// every spine consumer, the journal included, sees. A bare NewTaskStore
// publishes nothing.
type TaskStore struct {
	clk     clock.Clock
	bus     *event.Bus // nil publishes nothing
	mu      sync.Mutex
	records map[string]*entry
	live    [2][]*entry // by Status: Unassigned, Assigned
	done    doneHeap    // Completed and Expired
	counts  [4]int
	// unassignedHW is the peak unassigned backlog ever observed — the
	// quantity that reveals batch-trigger starvation or matcher collapse
	// on a dashboard long after the spike itself has drained.
	unassignedHW int
}

// entry is a record plus its place in the store's status index.
type entry struct {
	taskq.Record
	// pos is the entry's index in TaskStore.live[Status] while the task is
	// Unassigned or Assigned, and in TaskStore.done once it is terminal.
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

// NewTaskStore creates a store reading time from clk. It publishes nothing;
// Engine.New builds its store on the engine's bus. The second argument is
// read by no code: it is kept only so that the benchmark module, which
// passes a stripe count, still compiles (ROADMAP item 8).
func NewTaskStore(clk clock.Clock, _ int) *TaskStore { return newTaskStore(clk, nil) }

func newTaskStore(clk clock.Clock, bus *event.Bus) *TaskStore {
	return &TaskStore{clk: clk, bus: bus, records: make(map[string]*entry)}
}

// publish puts one lifecycle event on the spine. Callers hold s.mu, so
// taps run under the store lock and must not call back into the store.
func (s *TaskStore) publish(kind event.Kind, e *entry, at time.Time, worker, cause string, prob float64) {
	if s.bus != nil {
		s.bus.Publish(event.Event{Kind: kind, Task: e.Task.ID, Worker: worker, At: at,
			Cause: cause, Prob: prob, Record: e.Record})
	}
}

// lookup finds a record and checks its status for operation op. Callers
// hold s.mu.
func (s *TaskStore) lookup(id, op string, want taskq.Status) (*entry, error) {
	e, ok := s.records[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", taskq.ErrUnknownTask, id)
	}
	if e.Status != want {
		return nil, fmt.Errorf("%w: %s %q while %v", taskq.ErrBadState, op, id, e.Status)
	}
	return e, nil
}

// index files e under its current status. A terminal entry is ordered by
// FinishedAt, which must be set first. Callers hold s.mu.
func (s *TaskStore) index(e *entry) {
	if e.Status > taskq.Assigned {
		heap.Push(&s.done, e)
		return
	}
	set := &s.live[e.Status]
	e.pos = len(*set)
	*set = append(*set, e)
}

// unindex takes a live entry out of its status set: the last element moves
// into its place. Terminal entries only ever leave through retention's
// heap.Pop. Callers hold s.mu.
func (s *TaskStore) unindex(e *entry) {
	set := &s.live[e.Status]
	last := len(*set) - 1
	moved := (*set)[last]
	(*set)[e.pos], moved.pos = moved, e.pos
	(*set)[last] = nil
	*set = (*set)[:last]
}

// insert registers a new entry: id map, status index, counts, high-water
// mark. Callers hold s.mu.
func (s *TaskStore) insert(e *entry) {
	s.records[e.Task.ID] = e
	s.index(e)
	s.counts[e.Status]++
	s.noteHighWater()
}

func (s *TaskStore) noteHighWater() {
	if s.counts[taskq.Unassigned] > s.unassignedHW {
		s.unassignedHW = s.counts[taskq.Unassigned]
	}
}

// transition moves a live record to status to, index and counts included.
// Callers hold s.mu.
func (s *TaskStore) transition(e *entry, to taskq.Status) {
	s.unindex(e)
	s.counts[e.Status]--
	s.counts[to]++
	e.Status = to
	s.index(e)
	if to == taskq.Unassigned {
		s.noteHighWater()
	}
}

// finish is transition to a terminal status: it stamps FinishedAt first,
// which is what orders the record in the terminal heap. Callers hold s.mu.
func (s *TaskStore) finish(e *entry, to taskq.Status, at time.Time) {
	e.FinishedAt = at
	s.transition(e, to)
}

// Restore inserts a record verbatim — status, worker, timestamps, attempt
// and grading state — as recovery bulk-loads a journal snapshot before the
// engine starts. It bypasses the lifecycle checks Submit enforces (a
// restored record may already be terminal) and publishes nothing: the
// journal already holds this state.
func (s *TaskStore) Restore(r taskq.Record) error {
	if r.Task.ID == "" {
		return fmt.Errorf("%w: restore with empty id", taskq.ErrUnknownTask)
	}
	if r.Status < taskq.Unassigned || r.Status > taskq.Expired {
		return fmt.Errorf("%w: restore %q with status %d", taskq.ErrBadState, r.Task.ID, int(r.Status))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.records[r.Task.ID]; dup {
		return fmt.Errorf("%w: %q", taskq.ErrDuplicateTask, r.Task.ID)
	}
	s.insert(&entry{Record: r})
	return nil
}

// Submit registers a new unassigned task. The task's Submitted field is
// stamped with the current instant; its deadline must lie in the future.
func (s *TaskStore) Submit(t taskq.Task) error {
	now := s.clk.Now()
	if !t.Deadline.After(now) {
		return fmt.Errorf("%w: task %q deadline %v at %v", taskq.ErrPastDeadline, t.ID, t.Deadline, now)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.records[t.ID]; dup {
		return fmt.Errorf("%w: %q", taskq.ErrDuplicateTask, t.ID)
	}
	t.Submitted = now
	e := &entry{Record: taskq.Record{Task: t, Status: taskq.Unassigned}}
	s.insert(e)
	s.publish(event.KindSubmit, e, now, "", taskq.CauseSubmit, 0)
	return nil
}

// Get returns a copy of the record for id.
func (s *TaskStore) Get(id string) (taskq.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.records[id]
	if !ok {
		return taskq.Record{}, false
	}
	return e.Record, true
}

// Assign binds an unassigned task to a worker, stamping AssignedAt. It
// returns only the error because the benchmark module calls it that way
// (ROADMAP item 8); the engine binds through assign.
func (s *TaskStore) Assign(taskID, workerID string) error {
	_, err := s.assign(taskID, workerID)
	return err
}

// assign is Assign returning the record it bound, so the engine hands the
// transport the binding it made without a second trip through the lock.
func (s *TaskStore) assign(taskID, workerID string) (taskq.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookup(taskID, "assign", taskq.Unassigned)
	if err != nil {
		return taskq.Record{}, err
	}
	s.transition(e, taskq.Assigned)
	e.Worker = workerID
	e.AssignedAt = s.clk.Now()
	e.Attempts++
	s.publish(event.KindAssign, e, e.AssignedAt, workerID, taskq.CauseBatch, 0)
	return e.Record, nil
}

// Unassign returns an assigned task to the pool (worker abandoned it, or
// the Dynamic Assignment Component predicted a miss). The attempt count is
// preserved. cause says which component took the assignment back (one of
// the taskq.Cause* constants); prob is the Eq. 2 completion probability
// for CauseEq2 revocations (0 otherwise). Both ride on the revoke event.
// It revokes whoever holds the task; the engine names the holder (unassign).
func (s *TaskStore) Unassign(taskID, cause string, prob float64) error {
	return s.unassign(taskID, "", cause, prob)
}

// unassign is Unassign for a named holder: a non-empty holder must hold the
// task, checked under the lock that revokes it, as complete checks, so a
// release that lost a race to a rebind leaves the new holder's binding
// alone.
func (s *TaskStore) unassign(taskID, holder, cause string, prob float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookup(taskID, "unassign", taskq.Assigned)
	if err != nil {
		return err
	}
	worker := e.Worker
	if holder != "" && worker != holder {
		return fmt.Errorf("%w: unassign %q from %q, held by %q", taskq.ErrBadState, taskID, holder, worker)
	}
	s.transition(e, taskq.Unassigned)
	e.Worker = ""
	e.AssignedAt = time.Time{}
	s.publish(event.KindRevoke, e, s.clk.Now(), worker, cause, prob)
	return nil
}

// Complete finishes an assigned task, whoever holds it, and returns the
// final record. The caller decides whether the completion beat the
// deadline via MetDeadline.
func (s *TaskStore) Complete(taskID string) (taskq.Record, error) { return s.complete(taskID, "") }

// complete is Complete for a named holder: a non-empty worker must hold
// the task. The check shares the lock with the mutation, so a worker whose
// binding was revoked and handed to another cannot finish the new
// holder's.
func (s *TaskStore) complete(taskID, worker string) (taskq.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookup(taskID, "complete", taskq.Assigned)
	if err != nil {
		return taskq.Record{}, err
	}
	if worker != "" && e.Worker != worker {
		return taskq.Record{}, fmt.Errorf("%w: complete %q by %q, held by %q", taskq.ErrBadState, taskID, worker, e.Worker)
	}
	s.finish(e, taskq.Completed, s.clk.Now())
	s.publish(event.KindComplete, e, e.FinishedAt, e.Worker, taskq.CauseWorker, 0)
	return e.Record, nil
}

// MarkGraded records that the requester's feedback for a completed task has
// been consumed, exactly once: a second call fails, protecting the Eq. 1
// accuracy counters from double grading.
func (s *TaskStore) MarkGraded(taskID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookup(taskID, "grade", taskq.Completed)
	if err != nil {
		return err
	}
	if e.Graded {
		return fmt.Errorf("%w: %q already graded", taskq.ErrBadState, taskID)
	}
	e.Graded = true
	return nil
}

// Shed terminates an unassigned task before its deadline on admission
// control's orders. The record lands in the same terminal state as a
// deadline expiry (Expired — the requester-visible outcome is identical:
// no answer arrived) but the expire event carries taskq.CauseShed, so the
// spine, journal and any tail watcher attribute the loss to overload
// protection rather than the clock. A task already in a worker's hands
// runs to completion. With Unassigned it makes the store the
// admission.Pool the shedder works on.
func (s *TaskStore) Shed(taskID string) error {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookup(taskID, "shed", taskq.Unassigned)
	if err != nil {
		return err
	}
	s.finish(e, taskq.Expired, now)
	s.publish(event.KindExpire, e, now, e.Worker, taskq.CauseShed, 0)
	return nil
}

// Unassigned snapshots the tasks waiting for a worker, oldest submission
// first (ties broken by id). The slice is allocated before the lock is
// taken and sorted after it is released, so the scheduler's snapshot holds
// up a completion only for the copy itself.
func (s *TaskStore) Unassigned() []taskq.Task {
	out := s.appendUnassigned(make([]taskq.Task, 0, s.UnassignedCount()))
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (s *TaskStore) appendUnassigned(out []taskq.Task) []taskq.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.live[taskq.Unassigned] {
		out = append(out, e.Task)
	}
	return out
}

// AssignedTasks snapshots the records currently executing, sorted by task
// id, for the Eq. 2 monitor. Like Unassigned it allocates before the lock
// and sorts after it. It sorts (id, position) keys and then moves each
// record once: sorting the records themselves moves whole records at every
// swap.
func (s *TaskStore) AssignedTasks() []taskq.Record {
	out := s.appendAssigned(make([]taskq.Record, 0, s.count(taskq.Assigned)))
	type key struct {
		id  string
		pos int32
	}
	keys := make([]key, len(out))
	for i := range out {
		keys[i] = key{out[i].Task.ID, int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int { return strings.Compare(a.id, b.id) })
	// Apply the permutation in place, a cycle at a time: out[i] takes the
	// record at keys[i].pos, and a placed slot is marked by pointing at
	// itself.
	for i := range keys {
		if int(keys[i].pos) == i {
			continue
		}
		held, j := out[i], i
		for {
			k := int(keys[j].pos)
			keys[j].pos = int32(j)
			if k == i {
				out[j] = held
				break
			}
			out[j], j = out[k], k
		}
	}
	return out
}

func (s *TaskStore) appendAssigned(out []taskq.Record) []taskq.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.live[taskq.Assigned] {
		out = append(out, e.Record)
	}
	return out
}

// ExpireDue transitions every non-terminal task whose deadline has passed
// to Expired and returns their records sorted by task id. REACT treats
// deadlines as soft, so an expired-while-assigned task is simply recorded
// as missed; the worker's eventual answer is discarded.
func (s *TaskStore) ExpireDue() []taskq.Record { return s.expire(true) }

// ExpireUnassigned is ExpireDue restricted to tasks still waiting in the
// pool. The paper's evaluation uses this policy: a task already in a
// worker's hands runs to (possibly late) completion and is merely *counted*
// as missed, while a task nobody picked up by its deadline leaves the
// repository — the fate of the Greedy approach's queued tasks in §V.C.
func (s *TaskStore) ExpireUnassigned() []taskq.Record { return s.expire(false) }

// expire finishes and publishes the due set in id order. Nothing is
// allocated when nothing is due: expiry runs every tick, and a tick with
// nothing due must cost nothing.
func (s *TaskStore) expire(includeAssigned bool) []taskq.Record {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	sets := s.live[:1]
	if includeAssigned {
		sets = s.live[:]
	}
	var due []*entry
	for _, set := range sets {
		for _, e := range set {
			if !e.Task.Deadline.After(now) {
				due = append(due, e)
			}
		}
	}
	if len(due) == 0 {
		return nil
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Task.ID < due[j].Task.ID })
	out := make([]taskq.Record, len(due))
	for i, e := range due {
		s.finish(e, taskq.Expired, now)
		s.publish(event.KindExpire, e, now, e.Worker, taskq.CauseDeadline, 0)
		out[i] = e.Record
	}
	return out
}

// ForgetTerminatedBefore drops every completed or expired task whose
// terminal instant precedes cutoff, oldest first, ties by id, returning
// how many were removed. A long-running server calls this periodically to
// bound registry memory; REACT's own components never read terminal
// records after the requester has been notified.
func (s *TaskStore) ForgetTerminatedBefore(cutoff time.Time) int {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for len(s.done) > 0 && s.done[0].FinishedAt.Before(cutoff) {
		e := heap.Pop(&s.done).(*entry)
		s.counts[e.Status]--
		delete(s.records, e.Task.ID)
		s.publish(event.KindForget, e, now, e.Worker, taskq.CauseRetention, 0)
		removed++
	}
	return removed
}

// UnassignedCount is the backlog — the batch trigger reads this on every
// arrival.
func (s *TaskStore) UnassignedCount() int { return s.count(taskq.Unassigned) }

func (s *TaskStore) count(st taskq.Status) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[st]
}

// Counts reports how many tasks are in each state.
func (s *TaskStore) Counts() (unassigned, assigned, completed, expired int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counts
	return c[taskq.Unassigned], c[taskq.Assigned], c[taskq.Completed], c[taskq.Expired]
}

// ShardStat is the store's depth snapshot for the observability plane.
// Its name is kept only so that the benchmark module still compiles
// (ROADMAP item 8).
type ShardStat struct {
	Unassigned          int // tasks waiting for a worker
	Assigned            int // tasks in a worker's hands
	Terminal            int // completed + expired records still retained
	UnassignedHighWater int // peak unassigned backlog ever held
}

// ShardStats returns the store's depths and high-water mark as one
// consistent row, which the observability plane reads. It is a slice only
// because the benchmark module ranges over it (ROADMAP item 8).
func (s *TaskStore) ShardStats() []ShardStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counts
	return []ShardStat{{
		Unassigned:          c[taskq.Unassigned],
		Assigned:            c[taskq.Assigned],
		Terminal:            c[taskq.Completed] + c[taskq.Expired],
		UnassignedHighWater: s.unassignedHW,
	}}
}

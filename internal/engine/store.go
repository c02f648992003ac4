package engine

import (
	"container/heap"
	"fmt"
	"sort"
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
// The registry is striped across N shards keyed by an FNV-1a hash of the
// task id. Point operations (Submit, Get, Assign, Complete, ...) touch
// exactly one shard, so completions and submissions arriving concurrently
// with a running batch contend on 1/N of the locks a single registry would
// force them through. Snapshot operations (Unassigned, AssignedTasks, the
// expiries) collect from every shard and sort once, so every observable
// ordering is identical whatever the shard count — the property the
// determinism gate relies on.
//
// Every lifecycle mutation is published on the engine's event bus while
// the task's shard mutex is held, so no second mutation of the same task
// can start until the bus has stamped the first: the per-task total order
// every spine consumer relies on. A bare NewTaskStore publishes nothing.
type TaskStore struct {
	shards []*shard
}

// shard is one stripe of the store. Every record sits in exactly one index
// besides the id map: the unordered set of its live status
// (live[Unassigned], live[Assigned]) or the terminal heap. The periodic
// passes — the scheduler's and shedder's Unassigned, the monitor's
// AssignedTasks, expiry, retention — walk only their index, so they cost
// what is live or due, never what is retained.
type shard struct {
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

// entry is a record plus its place in the shard's status index.
type entry struct {
	taskq.Record
	// pos is the entry's index in shard.live[Status] while the task is
	// Unassigned or Assigned, and in shard.done once it is terminal.
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

// NewTaskStore creates a store with n shards reading time from clk. n below
// 1 is treated as 1. It publishes nothing; Engine.New builds its store on
// the engine's bus.
func NewTaskStore(clk clock.Clock, n int) *TaskStore { return newTaskStore(clk, n, nil) }

func newTaskStore(clk clock.Clock, n int, bus *event.Bus) *TaskStore {
	if n < 1 {
		n = 1
	}
	s := &TaskStore{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{clk: clk, bus: bus, records: make(map[string]*entry)}
	}
	return s
}

// Shards reports the stripe count.
func (s *TaskStore) Shards() int { return len(s.shards) }

// shard routes a task id to its stripe (FNV-1a, inlined to keep the hot
// path allocation-free).
func (s *TaskStore) shard(id string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// publish puts one lifecycle event on the spine. Callers hold sh.mu, so
// taps run under the shard lock and must not call back into the store.
func (sh *shard) publish(kind event.Kind, e *entry, at time.Time, worker, cause string, prob float64) {
	if sh.bus != nil {
		sh.bus.Publish(event.Event{Kind: kind, Task: e.Task.ID, Worker: worker, At: at,
			Cause: cause, Prob: prob, Record: e.Record})
	}
}

// lookup finds a record and checks its status for operation op. Callers
// hold sh.mu.
func (sh *shard) lookup(id, op string, want taskq.Status) (*entry, error) {
	e, ok := sh.records[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", taskq.ErrUnknownTask, id)
	}
	if e.Status != want {
		return nil, fmt.Errorf("%w: %s %q while %v", taskq.ErrBadState, op, id, e.Status)
	}
	return e, nil
}

// index files e under its current status. A terminal entry is ordered by
// FinishedAt, which must be set first. Callers hold sh.mu.
func (sh *shard) index(e *entry) {
	if e.Status > taskq.Assigned {
		heap.Push(&sh.done, e)
		return
	}
	set := &sh.live[e.Status]
	e.pos = len(*set)
	*set = append(*set, e)
}

// unindex takes a live entry out of its status set: the last element moves
// into its place. Terminal entries only ever leave through retention's
// heap.Pop. Callers hold sh.mu.
func (sh *shard) unindex(e *entry) {
	set := &sh.live[e.Status]
	last := len(*set) - 1
	moved := (*set)[last]
	(*set)[e.pos], moved.pos = moved, e.pos
	(*set)[last] = nil
	*set = (*set)[:last]
}

// insert registers a new entry: id map, status index, counts, high-water
// mark. Callers hold sh.mu.
func (sh *shard) insert(e *entry) {
	sh.records[e.Task.ID] = e
	sh.index(e)
	sh.counts[e.Status]++
	sh.noteHighWater()
}

func (sh *shard) noteHighWater() {
	if sh.counts[taskq.Unassigned] > sh.unassignedHW {
		sh.unassignedHW = sh.counts[taskq.Unassigned]
	}
}

// transition moves a live record to status to, index and counts included.
// Callers hold sh.mu.
func (sh *shard) transition(e *entry, to taskq.Status) {
	sh.unindex(e)
	sh.counts[e.Status]--
	sh.counts[to]++
	e.Status = to
	sh.index(e)
	if to == taskq.Unassigned {
		sh.noteHighWater()
	}
}

// finish is transition to a terminal status: it stamps FinishedAt first,
// which is what orders the record in the terminal heap. Callers hold sh.mu.
func (sh *shard) finish(e *entry, to taskq.Status, at time.Time) {
	e.FinishedAt = at
	sh.transition(e, to)
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
	sh := s.shard(r.Task.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.records[r.Task.ID]; dup {
		return fmt.Errorf("%w: %q", taskq.ErrDuplicateTask, r.Task.ID)
	}
	sh.insert(&entry{Record: r})
	return nil
}

// Submit registers a new unassigned task. The task's Submitted field is
// stamped with the current instant; its deadline must lie in the future.
func (s *TaskStore) Submit(t taskq.Task) error {
	sh := s.shard(t.ID)
	now := sh.clk.Now()
	if !t.Deadline.After(now) {
		return fmt.Errorf("%w: task %q deadline %v at %v", taskq.ErrPastDeadline, t.ID, t.Deadline, now)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.records[t.ID]; dup {
		return fmt.Errorf("%w: %q", taskq.ErrDuplicateTask, t.ID)
	}
	t.Submitted = now
	e := &entry{Record: taskq.Record{Task: t, Status: taskq.Unassigned}}
	sh.insert(e)
	sh.publish(event.KindSubmit, e, now, "", taskq.CauseSubmit, 0)
	return nil
}

// Get returns a copy of the record for id.
func (s *TaskStore) Get(id string) (taskq.Record, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.records[id]
	if !ok {
		return taskq.Record{}, false
	}
	return e.Record, true
}

// Assign binds an unassigned task to a worker, stamping AssignedAt.
func (s *TaskStore) Assign(taskID, workerID string) error {
	sh := s.shard(taskID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := sh.lookup(taskID, "assign", taskq.Unassigned)
	if err != nil {
		return err
	}
	sh.transition(e, taskq.Assigned)
	e.Worker = workerID
	e.AssignedAt = sh.clk.Now()
	e.Attempts++
	sh.publish(event.KindAssign, e, e.AssignedAt, workerID, taskq.CauseBatch, 0)
	return nil
}

// Unassign returns an assigned task to the pool (worker abandoned it, or
// the Dynamic Assignment Component predicted a miss). The attempt count is
// preserved. cause says which component took the assignment back (one of
// the taskq.Cause* constants); prob is the Eq. 2 completion probability
// for CauseEq2 revocations (0 otherwise). Both ride on the revoke event.
func (s *TaskStore) Unassign(taskID, cause string, prob float64) error {
	sh := s.shard(taskID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := sh.lookup(taskID, "unassign", taskq.Assigned)
	if err != nil {
		return err
	}
	worker := e.Worker
	sh.transition(e, taskq.Unassigned)
	e.Worker = ""
	e.AssignedAt = time.Time{}
	sh.publish(event.KindRevoke, e, sh.clk.Now(), worker, cause, prob)
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
	sh := s.shard(taskID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := sh.lookup(taskID, "complete", taskq.Assigned)
	if err != nil {
		return taskq.Record{}, err
	}
	if worker != "" && e.Worker != worker {
		return taskq.Record{}, fmt.Errorf("%w: complete %q by %q, held by %q", taskq.ErrBadState, taskID, worker, e.Worker)
	}
	sh.finish(e, taskq.Completed, sh.clk.Now())
	sh.publish(event.KindComplete, e, e.FinishedAt, e.Worker, taskq.CauseWorker, 0)
	return e.Record, nil
}

// MarkGraded records that the requester's feedback for a completed task has
// been consumed, exactly once: a second call fails, protecting the Eq. 1
// accuracy counters from double grading.
func (s *TaskStore) MarkGraded(taskID string) error {
	sh := s.shard(taskID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := sh.lookup(taskID, "grade", taskq.Completed)
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
	sh := s.shard(taskID)
	now := sh.clk.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := sh.lookup(taskID, "shed", taskq.Unassigned)
	if err != nil {
		return err
	}
	sh.finish(e, taskq.Expired, now)
	sh.publish(event.KindExpire, e, now, e.Worker, taskq.CauseShed, 0)
	return nil
}

// Unassigned snapshots the tasks waiting for a worker, oldest submission
// first (ties broken by id). The result is allocated once at the summed
// backlog: this runs on the per-batch hot path, where growing the slice by
// repeated append costs a realloc-and-copy per doubling.
func (s *TaskStore) Unassigned() []taskq.Task {
	out := make([]taskq.Task, 0, s.UnassignedCount())
	for _, sh := range s.shards {
		out = sh.appendUnassigned(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (sh *shard) appendUnassigned(out []taskq.Task) []taskq.Task {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.live[taskq.Unassigned] {
		out = append(out, e.Task)
	}
	return out
}

// AssignedTasks snapshots the records currently executing, sorted by task
// id, for the Eq. 2 monitor.
func (s *TaskStore) AssignedTasks() []taskq.Record {
	out := make([]taskq.Record, 0, s.count(taskq.Assigned))
	for _, sh := range s.shards {
		out = sh.appendAssigned(out)
	}
	sortByID(out)
	return out
}

func (sh *shard) appendAssigned(out []taskq.Record) []taskq.Record {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.live[taskq.Assigned] {
		out = append(out, e.Record)
	}
	return out
}

func sortByID(recs []taskq.Record) {
	if len(recs) > 1 {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Task.ID < recs[j].Task.ID })
	}
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

// expire publishes shard by shard, each shard's expiries in id order.
// Nothing is allocated when nothing is due: expiry runs every tick, and a
// tick with nothing due must cost nothing.
func (s *TaskStore) expire(includeAssigned bool) []taskq.Record {
	var out []taskq.Record
	for _, sh := range s.shards {
		out = sh.expire(out, includeAssigned)
	}
	if len(s.shards) > 1 {
		sortByID(out)
	}
	return out
}

func (sh *shard) expire(out []taskq.Record, includeAssigned bool) []taskq.Record {
	now := sh.clk.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sets := sh.live[:1]
	if includeAssigned {
		sets = sh.live[:]
	}
	var due []*entry
	for _, set := range sets {
		for _, e := range set {
			if !e.Task.Deadline.After(now) {
				due = append(due, e)
			}
		}
	}
	if len(due) > 1 {
		sort.Slice(due, func(i, j int) bool { return due[i].Task.ID < due[j].Task.ID })
	}
	for _, e := range due {
		sh.finish(e, taskq.Expired, now)
		sh.publish(event.KindExpire, e, now, e.Worker, taskq.CauseDeadline, 0)
		out = append(out, e.Record)
	}
	return out
}

// ForgetTerminatedBefore drops every completed or expired task whose
// terminal instant precedes cutoff, returning how many were removed. A
// long-running server calls this periodically to bound registry memory;
// REACT's own components never read terminal records after the requester
// has been notified. Each shard drops its records oldest first, ties by id.
func (s *TaskStore) ForgetTerminatedBefore(cutoff time.Time) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.forget(cutoff)
	}
	return n
}

func (sh *shard) forget(cutoff time.Time) int {
	now := sh.clk.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	removed := 0
	for len(sh.done) > 0 && sh.done[0].FinishedAt.Before(cutoff) {
		e := heap.Pop(&sh.done).(*entry)
		sh.counts[e.Status]--
		delete(sh.records, e.Task.ID)
		sh.publish(event.KindForget, e, now, e.Worker, taskq.CauseRetention, 0)
		removed++
	}
	return removed
}

// UnassignedCount sums the per-shard backlog — the batch trigger reads this
// on every arrival.
func (s *TaskStore) UnassignedCount() int { return s.count(taskq.Unassigned) }

// count sums the shards' records in status st.
func (s *TaskStore) count(st taskq.Status) int {
	n := 0
	for _, sh := range s.shards {
		c, _ := sh.depth()
		n += c[st]
	}
	return n
}

// Counts sums how many tasks are in each state across shards.
func (s *TaskStore) Counts() (unassigned, assigned, completed, expired int) {
	for _, sh := range s.shards {
		c, _ := sh.depth()
		unassigned += c[taskq.Unassigned]
		assigned += c[taskq.Assigned]
		completed += c[taskq.Completed]
		expired += c[taskq.Expired]
	}
	return
}

// depth is one consistent read of a shard's per-status counts and its
// unassigned high-water mark.
func (sh *shard) depth() (counts [4]int, unassignedHW int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.counts, sh.unassignedHW
}

// ShardStat is one stripe's depth snapshot for the observability plane.
type ShardStat struct {
	Shard               int // stripe index
	Unassigned          int // tasks waiting for a worker
	Assigned            int // tasks in a worker's hands
	Terminal            int // completed + expired records still retained
	UnassignedHighWater int // peak unassigned backlog ever held by this stripe
}

// ShardStats snapshots every stripe's depths and high-water marks, in
// stripe order. Each shard is locked independently, so the rows are not a
// single consistent cut — fine for monitoring, wrong for accounting.
func (s *TaskStore) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		c, hw := sh.depth()
		out[i] = ShardStat{
			Shard:               i,
			Unassigned:          c[taskq.Unassigned],
			Assigned:            c[taskq.Assigned],
			Terminal:            c[taskq.Completed] + c[taskq.Expired],
			UnassignedHighWater: hw,
		}
	}
	return out
}

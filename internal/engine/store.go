package engine

import (
	"sort"
	"time"

	"react/internal/clock"
	"react/internal/taskq"
)

// TaskStore is the engine's task-management state, striped across N
// taskq.Manager shards keyed by an FNV-1a hash of the task id. Point
// operations (Submit, Get, Assign, Complete, ...) touch exactly one shard,
// so completions and submissions arriving concurrently with a running batch
// contend on 1/N of the locks the old single manager forced them through.
//
// Snapshot operations (Unassigned, AssignedTasks, ExpireUnassigned) merge
// the per-shard results and re-sort them globally, so every observable
// ordering is identical to a single-manager store regardless of the shard
// count — the property the determinism gate relies on.
type TaskStore struct {
	shards []*taskq.Manager
}

// NewTaskStore creates a store with n shards reading time from clk. n below
// 1 is treated as 1.
func NewTaskStore(clk clock.Clock, n int) *TaskStore {
	if n < 1 {
		n = 1
	}
	s := &TaskStore{shards: make([]*taskq.Manager, n)}
	for i := range s.shards {
		s.shards[i] = taskq.NewManager(clk)
	}
	return s
}

// Shards reports the stripe count.
func (s *TaskStore) Shards() int { return len(s.shards) }

// shard routes a task id to its manager (FNV-1a, inlined to keep the hot
// path allocation-free).
func (s *TaskStore) shard(id string) *taskq.Manager {
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

// Submit registers a new unassigned task on its shard.
func (s *TaskStore) Submit(t taskq.Task) error { return s.shard(t.ID).Submit(t) }

// Get returns a copy of the record for id.
func (s *TaskStore) Get(id string) (taskq.Record, bool) { return s.shard(id).Get(id) }

// Assign binds an unassigned task to a worker.
func (s *TaskStore) Assign(taskID, workerID string) error {
	return s.shard(taskID).Assign(taskID, workerID)
}

// Unassign returns an assigned task to the pool, tagging the emitted
// event with cause (a taskq.Cause* constant) and, for Eq. 2 revocations,
// the predicted completion probability.
func (s *TaskStore) Unassign(taskID, cause string, prob float64) error {
	return s.shard(taskID).Unassign(taskID, cause, prob)
}

// Complete finishes an assigned task, whoever holds it, and returns the
// final record.
func (s *TaskStore) Complete(taskID string) (taskq.Record, error) {
	return s.shard(taskID).Complete(taskID, "")
}

// MarkGraded records that the requester's feedback has been consumed.
func (s *TaskStore) MarkGraded(taskID string) error { return s.shard(taskID).MarkGraded(taskID) }

// Shed terminates an unassigned task on admission control's orders: the
// record lands as Expired but the spine event carries taskq.CauseShed, so
// the ledger counts it under both (see taskq.Manager.Shed). With
// Unassigned it makes the store the admission.Pool the shedder works on.
func (s *TaskStore) Shed(taskID string) error {
	_, err := s.shard(taskID).Shed(taskID)
	return err
}

// Unassigned snapshots the tasks waiting for a worker, oldest submission
// first (ties broken by id), merged across shards. The merge collects the
// per-shard slices first and allocates the result once at the summed
// length: this runs on the per-batch hot path, where growing the slice by
// repeated append costs a realloc-and-copy per doubling.
func (s *TaskStore) Unassigned() []taskq.Task {
	if len(s.shards) == 1 {
		return s.shards[0].Unassigned()
	}
	parts := make([][]taskq.Task, len(s.shards))
	total := 0
	for i, m := range s.shards {
		parts[i] = m.Unassigned()
		total += len(parts[i])
	}
	out := make([]taskq.Task, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// mergeRecords merges one record-snapshot call across shards into a single
// id-sorted slice. Nothing is allocated when every shard comes back empty:
// expiry runs this every tick, and a tick with nothing due must cost
// nothing.
func (s *TaskStore) mergeRecords(snap func(*taskq.Manager) []taskq.Record) []taskq.Record {
	if len(s.shards) == 1 {
		return snap(s.shards[0])
	}
	var out []taskq.Record
	for _, m := range s.shards {
		out = append(out, snap(m)...)
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Task.ID < out[j].Task.ID })
	}
	return out
}

// UnassignedCount sums the per-shard backlog — the batch trigger reads this
// on every arrival.
func (s *TaskStore) UnassignedCount() int {
	n := 0
	for _, m := range s.shards {
		n += m.UnassignedCount()
	}
	return n
}

// AssignedTasks snapshots the records currently executing, sorted by task
// id across shards, for the Eq. 2 monitor.
func (s *TaskStore) AssignedTasks() []taskq.Record {
	return s.mergeRecords((*taskq.Manager).AssignedTasks)
}

// ExpireUnassigned expires every overdue task still waiting in the pool and
// returns their records sorted by task id.
func (s *TaskStore) ExpireUnassigned() []taskq.Record {
	return s.mergeRecords((*taskq.Manager).ExpireUnassigned)
}

// ExpireDue expires every overdue non-terminal task, assigned or not, and
// returns their records sorted by task id.
func (s *TaskStore) ExpireDue() []taskq.Record {
	return s.mergeRecords((*taskq.Manager).ExpireDue)
}

// Counts sums how many tasks are in each state across shards.
func (s *TaskStore) Counts() (unassigned, assigned, completed, expired int) {
	for _, m := range s.shards {
		u, a, c, e := m.Counts()
		unassigned += u
		assigned += a
		completed += c
		expired += e
	}
	return
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
	for i, m := range s.shards {
		u, a, c, e := m.Counts()
		out[i] = ShardStat{
			Shard:               i,
			Unassigned:          u,
			Assigned:            a,
			Terminal:            c + e,
			UnassignedHighWater: m.UnassignedHighWater(),
		}
	}
	return out
}

// Restore inserts a recovered record verbatim on its shard, bypassing
// lifecycle checks (see taskq.Manager.Restore). Journal recovery
// bulk-loads a snapshot through this before the engine starts.
func (s *TaskStore) Restore(r taskq.Record) error { return s.shard(r.Task.ID).Restore(r) }

// setSink installs fn as every shard's mutation observer. Events are
// emitted while the shard's lock is held, which gives the event spine
// its per-task total order; fn must be fast, must not block, and must not
// call back into the store. Engine.New owns the single sink (it forwards
// into the event bus); everything else consumes the bus.
func (s *TaskStore) setSink(fn func(taskq.Event)) {
	for _, m := range s.shards {
		m.SetSink(fn)
	}
}

// ForgetTerminatedBefore garbage-collects terminal records older than
// cutoff on every shard, returning how many were removed.
func (s *TaskStore) ForgetTerminatedBefore(cutoff time.Time) int {
	n := 0
	for _, m := range s.shards {
		n += m.ForgetTerminatedBefore(cutoff)
	}
	return n
}

package core

import (
	"bytes"
	"fmt"
	"sort"

	"react/internal/event"
	"react/internal/journal"
	"react/internal/taskq"
)

// EnablePersistence attaches a journal store to a freshly constructed,
// not-yet-started server: it bulk-loads whatever the store recovered —
// tasks verbatim, worker profiles (restored offline until they
// reconnect), lifecycle counters — then installs the write-ahead hooks so
// every subsequent mutation is journaled. Finally, every recovered task
// still marked Assigned is swept back to the unassigned pool, because its
// worker's connection did not survive the restart; the sweep itself is
// journaled, so a second crash recovers the post-sweep state.
//
// Call it exactly once, after New and before Start or any traffic. The
// returned summary is what Open recovered, for startup logs.
func (s *Server) EnablePersistence(store *journal.Store) (journal.Summary, error) {
	if s.store != nil {
		return journal.Summary{}, fmt.Errorf("core: persistence already enabled")
	}
	sum := store.Summary()
	st := store.TakeRecovered()
	if st == nil {
		return sum, fmt.Errorf("core: journal store's recovered state already taken")
	}

	// Profiles cross registries via the snapshot codec: it persists only
	// durable state and restores workers as offline, exactly the posture a
	// restarted server needs.
	var buf bytes.Buffer
	if err := st.Profiles.WriteSnapshot(&buf); err != nil {
		return sum, err
	}
	if _, err := s.eng.Workers().ReadSnapshot(&buf); err != nil {
		return sum, err
	}
	ids := make([]string, 0, len(st.Tasks))
	for id := range st.Tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := s.eng.Tasks().Restore(st.Tasks[id]); err != nil {
			return sum, fmt.Errorf("core: restore task %q: %w", id, err)
		}
	}

	// The ledger — counters and the admission gates' load signals alike —
	// picks up where the replayed log left off, so the sweep below and all
	// traffic after it count themselves as they will replay.
	s.eng.Ledger().Seed(st.Stats.Counts(), s.eng.Tasks().UnassignedCount())

	// Journal from here on, as a synchronous tap on the event spine — the
	// journal's only writer: task-lifecycle events and the worker-level
	// facts (attach, feedback, deregister) alike. Lifecycle taps fire under
	// the shard lock, so the WAL inherits the per-task total order, and
	// Append never blocks (it only buffers), so holding that lock is safe.
	// Errors are not actionable here: the store has already logged its
	// sticky failure, and a dead disk must degrade durability, not
	// availability.
	s.store = store
	s.eng.Events().Tap(func(ev event.Event) {
		if rec, ok := journal.FromEvent(ev); ok {
			_ = store.Append(rec)
		}
	})

	// Sweep orphaned assignments back to the pool — journaled through the
	// tap just installed, and counted by the ledger as reassignments (the
	// same accounting a worker disconnect gets).
	for _, rec := range s.eng.Tasks().AssignedTasks() {
		if err := s.eng.Tasks().Unassign(rec.Task.ID, taskq.CauseRecoverySweep, 0); err != nil {
			return sum, fmt.Errorf("core: return recovered task %q to pool: %w", rec.Task.ID, err)
		}
	}
	return sum, nil
}

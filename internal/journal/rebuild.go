package journal

import (
	"fmt"

	"react/internal/event"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

// State is rebuilt scheduling state: the task registry as plain records,
// the worker profiles, and the lifecycle counters — the same event.Ledger
// fold the live engine runs, so replay cannot count differently (batch
// counts and matcher wall time are not journaled and reset across a
// recovery). It is produced by replaying a snapshot plus WAL records and
// consumed either by recovery (bulk-loaded into a fresh engine) or by
// compaction (written straight back out as the next snapshot).
type State struct {
	Tasks    map[string]taskq.Record
	Profiles *profile.Registry
	Stats    event.Ledger
}

// NewState returns an empty rebuild target.
func NewState() *State {
	return &State{
		Tasks:    make(map[string]taskq.Record),
		Profiles: profile.NewRegistry(),
	}
}

// Apply replays one record. Task-lifecycle records are pure upserts — the
// record carries the full post-mutation state, and the taskq sink's
// under-lock emission guarantees per-task order — so Apply cannot reject a
// record for being in the "wrong" state; it only fails on records that
// reference impossible worker state, which indicates a corrupt or
// hand-edited log.
func (s *State) Apply(r Record) error {
	switch r.Kind {
	case KindSubmit, KindAssign, KindUnassign, KindComplete, KindExpire:
		s.Tasks[r.Task.Task.ID] = *r.Task
		s.Stats.Observe(r.event())
		if r.Kind == KindComplete {
			// Mirror the live engine: a completion feeds the worker's
			// power-law execution-time model immediately.
			if p, ok := s.Profiles.Get(r.Task.Worker); ok {
				p.RecordExecTime(r.Task.ExecTime().Seconds())
			}
		}
	case KindForget:
		delete(s.Tasks, r.TaskID)
	case KindFeedback:
		// The grade credits the worker's per-category accuracy (Eq. 1) and
		// marks the task graded so a replayed server still rejects double
		// grading. A missing task is normal (retention may have forgotten
		// it between the grade and the crash); a missing worker means the
		// worker deregistered afterwards, and its history went with it.
		if p, ok := s.Profiles.Get(r.Worker); ok {
			p.RecordFeedback(r.Category, r.Positive)
		}
		if rec, ok := s.Tasks[r.TaskID]; ok {
			rec.Graded = true
			s.Tasks[r.TaskID] = rec
		}
	case KindAttach:
		loc := region.Point{Lat: r.Lat, Lon: r.Lon}
		if _, err := s.Profiles.Register(r.Worker, loc); err != nil {
			// Already present: the worker was restored from the snapshot
			// or attached earlier in the log; refresh its location.
			if p, ok := s.Profiles.Get(r.Worker); ok && loc.Valid() {
				p.SetLocation(loc)
			} else if !ok {
				return fmt.Errorf("journal: replay attach %q: %w", r.Worker, err)
			}
		}
	case KindDeregister:
		if err := s.Profiles.Deregister(r.Worker); err != nil {
			return fmt.Errorf("journal: replay deregister: %w", err)
		}
	default:
		return fmt.Errorf("journal: replay unknown record kind %d", int(r.Kind))
	}
	return nil
}

package journal

import (
	"fmt"

	"react/internal/event"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

// State is rebuilt scheduling state: the task registry as plain records,
// the worker profiles, and the lifecycle counters. Profiles and counters
// learn through the folds the live engine taps (profile.Registry.Observe,
// event.Ledger), so replay cannot learn or count differently (batch
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
	case event.KindSubmit, event.KindAssign, event.KindRevoke, event.KindComplete, event.KindExpire:
		// The live engine's folds, in its tap order: the counters, then the
		// profiles (a completion feeds the answerer's execution-time model).
		ev := r.event()
		s.Tasks[ev.Task] = ev.Record
		s.Stats.Observe(ev)
		s.Profiles.Observe(ev)
	case event.KindForget:
		delete(s.Tasks, r.TaskID)
	case event.KindFeedback:
		// The grade credits the worker's per-category accuracy (Eq. 1) and
		// marks the task graded so a replayed server still rejects double
		// grading. A missing task is normal (retention may have forgotten
		// it between the grade and the crash); a missing worker means the
		// worker deregistered afterwards, and its history went with it.
		s.Profiles.Observe(r.event())
		if rec, ok := s.Tasks[r.TaskID]; ok {
			rec.Graded = true
			s.Tasks[r.TaskID] = rec
		}
	case event.KindAttach:
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
	case event.KindDeregister:
		if err := s.Profiles.Deregister(r.Worker); err != nil {
			return fmt.Errorf("journal: replay deregister: %w", err)
		}
	default:
		return fmt.Errorf("journal: replay unknown record kind %d", int(r.Kind))
	}
	return nil
}

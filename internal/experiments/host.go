package experiments

import (
	"time"

	"react/internal/engine"
	"react/internal/sim"
	"react/internal/taskq"
)

// newHost builds an engine that runs on loop's virtual clock: cfg's Clock
// and Defer come from loop, so Start arms every tick and round there. Its
// one Deliver hook draws the binding's service time from exec, at delivery
// so the draws follow the engine's apply order, and schedules the
// completion. The completion finishes only the binding it was armed for
// (DESIGN.md decision 3): after a revoke, or a revoke and a re-bind of the
// same worker, it moves nothing. done, when non-nil, gets each final record.
func newHost(loop *sim.Engine, cfg engine.Config, exec func(taskq.Record) time.Duration, done func(taskq.Record)) *engine.Engine {
	cfg.Clock = loop.Clock()
	cfg.Defer = loop.After
	var eng *engine.Engine
	eng = engine.New(cfg, engine.Hooks{
		Deliver: func(rec taskq.Record) bool {
			task, worker, at := rec.Task.ID, rec.Worker, rec.AssignedAt
			loop.After(exec(rec), func(time.Time) {
				cur, ok := eng.Tasks().Get(task)
				if !ok || cur.Status != taskq.Assigned || cur.Worker != worker || !cur.AssignedAt.Equal(at) {
					return
				}
				if final, err := eng.Complete(task, worker); err == nil && done != nil {
					done(final)
				}
			})
			return true
		},
	})
	return eng
}

// arrive is the one arrival pump: it calls submit at first, and again at
// each instant submit returns, until submit reports no more.
func arrive(loop *sim.Engine, first time.Time, submit func(now time.Time) (next time.Time, more bool)) {
	var pump sim.Handler
	pump = func(now time.Time) {
		if next, more := submit(now); more {
			loop.Schedule(next, pump)
		}
	}
	loop.Schedule(first, pump)
}

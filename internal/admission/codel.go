package admission

import (
	"math"
	"time"

	"react/internal/taskq"
)

// Pool is the slice of the engine the shedder needs: the unassigned
// snapshot (oldest submission first, the order taskq already guarantees)
// and the shed operation itself. *engine.TaskStore satisfies it; the
// engine's Tick hands the shedder its own store.
type Pool interface {
	// Unassigned snapshots the tasks waiting for a worker, oldest
	// submission first.
	Unassigned() []taskq.Task
	// Shed terminates one unassigned task with CauseShed attribution.
	Shed(taskID string) error
}

// TickShed runs one pass of the CoDel-style queue-delay shedder and
// returns how many tasks it shed. Engine.Tick ends with it.
//
// The controlled quantity is the sojourn time of the oldest unassigned
// task — how long the head of the pool has waited for a worker. CoDel's
// state machine applies unchanged: the first time sojourn exceeds
// ShedTarget, arm a timer one ShedInterval out; if it is still above
// target when the timer fires, shed one victim and re-arm at
// interval/√count, shedding faster the longer the overload persists;
// the moment sojourn dips below target, disarm and reset.
//
// Victim selection is oldest-deadline-first: among the waiting tasks the
// one whose deadline is nearest is the least likely to be served in time
// (its budget is smallest while its queue delay is the same), so
// shedding it sacrifices the least expected goodput and frees the pool
// fastest for tasks that can still make it. Shed victims land as
// Expired with taskq.CauseShed on the event spine.
func (c *Controller) TickShed(pool Pool) int {
	if c.cfg.ShedTarget < 0 {
		return 0
	}
	now := c.clk.Now()

	waiting := pool.Unassigned()
	c.shedMu.Lock()
	defer c.shedMu.Unlock()
	if len(waiting) == 0 || now.Sub(waiting[0].Submitted) < c.cfg.ShedTarget {
		// Below target (or empty): leave the overload episode.
		c.aboveSince = time.Time{}
		c.dropCount = 0
		return 0
	}
	if c.aboveSince.IsZero() {
		// First observation above target: arm, don't shed yet — a brief
		// burst that drains within one interval costs nothing.
		c.aboveSince = now
		c.dropNext = now.Add(c.cfg.ShedInterval)
		return 0
	}

	shed := 0
	for !now.Before(c.dropNext) && len(waiting) > 0 {
		v := victimIndex(waiting)
		if err := pool.Shed(waiting[v].ID); err == nil {
			shed++
		}
		waiting = append(waiting[:v], waiting[v+1:]...)
		c.dropCount++
		c.dropNext = c.dropNext.Add(time.Duration(
			float64(c.cfg.ShedInterval) / math.Sqrt(float64(c.dropCount))))
	}
	return shed
}

// victimIndex picks the waiting task with the earliest deadline (ties
// broken by id for determinism).
func victimIndex(waiting []taskq.Task) int {
	v := 0
	for i := 1; i < len(waiting); i++ {
		switch {
		case waiting[i].Deadline.Before(waiting[v].Deadline):
			v = i
		case waiting[i].Deadline.Equal(waiting[v].Deadline) && waiting[i].ID < waiting[v].ID:
			v = i
		}
	}
	return v
}

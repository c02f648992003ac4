package engine

import "time"

// Start launches what paces the engine; every host calls it once, after
// any recovery and before traffic: Tick every Config.BatchPoll (retention
// GC, expiry of overdue unassigned tasks, the period half of the batch
// trigger, the shedder), TryBatch whenever a submit, a release, an attach
// or a worker turning willing finds more than BatchBound tasks waiting,
// and TickMonitor every Config.MonitorPeriod (the Eq. 2 sweep). With
// Config.Defer nil, two wall-clock loops make those calls; with it set,
// Start arms them through Defer and launches no goroutine.
func (e *Engine) Start() {
	if e.cfg.Defer != nil {
		e.driven.Store(true)
		e.cfg.Defer(e.cfg.BatchPoll, e.pollTick)
		e.cfg.Defer(e.cfg.MonitorPeriod, e.monitorTick)
		if len(e.wake) > 0 {
			e.cfg.Defer(0, e.wakeRound) // kicked before Start
		}
		return
	}
	e.loops.Add(2)
	go e.batchLoop()
	go e.monitorLoop()
}

// Stop ends what Start launched: no tick or kicked round runs after it,
// and nothing re-arms. It is idempotent, and harmless on an engine never
// started.
func (e *Engine) Stop() {
	e.driven.Store(false)
	e.stopOnce.Do(func() { close(e.stop) })
	e.loops.Wait()
}

// pollTick, monitorTick and wakeRound are batchLoop's ticker and wake
// cases and monitorLoop's tick on the Defer clock. A tick re-arms itself
// until Stop; a kicked round empties the wake slot before it runs, so a
// kick during the round arms the next one.
func (e *Engine) pollTick(time.Time) {
	if e.driven.Load() {
		e.Tick()
		e.cfg.Defer(e.cfg.BatchPoll, e.pollTick)
	}
}

func (e *Engine) monitorTick(time.Time) {
	if e.driven.Load() {
		e.TickMonitor()
		e.cfg.Defer(e.cfg.MonitorPeriod, e.monitorTick)
	}
}

func (e *Engine) wakeRound(time.Time) {
	select {
	case <-e.wake:
	default:
	}
	if e.driven.Load() {
		e.TryBatch()
	}
}

// batchLoop runs every round the live engine plays. The ticker drives
// Tick — retention GC, expiry of overdue unassigned tasks, the period half
// of the batch trigger, and the shedder — and a kick (wake) drives
// TryBatch alone, so a round starts when the backlog crosses BatchBound,
// not on the next poll.
func (e *Engine) batchLoop() {
	defer e.loops.Done()
	//lint:ignore clockdiscipline the ticker only paces polling; every scheduling decision reads the injected cfg.Clock
	ticker := time.NewTicker(e.cfg.BatchPoll)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.Tick()
		case <-e.wake:
			e.TryBatch()
		}
	}
}

// monitorLoop runs the Eq. 2 sweep.
func (e *Engine) monitorLoop() {
	defer e.loops.Done()
	//lint:ignore clockdiscipline the ticker only paces the sweep; Eq. 2 itself reads the injected cfg.Clock
	ticker := time.NewTicker(e.cfg.MonitorPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
		}
		e.TickMonitor()
	}
}

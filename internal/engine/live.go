package engine

import "time"

// Start launches what paces the engine; every host calls it once, after
// any recovery and before traffic: Tick every Config.BatchPoll (retention
// GC, expiry of overdue unassigned tasks, the period half of the batch
// trigger, the shedder), TickMonitor every Config.MonitorPeriod (the Eq. 2
// sweep), and TryBatch whenever a submit, a release, an attach or a worker
// turning willing finds more than BatchBound tasks waiting. With
// Config.Defer nil, one wall-clock loop makes those calls; with it set,
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
	e.loop.Add(1)
	go e.run()
}

// Stop ends what Start launched: no tick or kicked round runs after it,
// and nothing re-arms. It is idempotent, and harmless on an engine never
// started.
func (e *Engine) Stop() {
	e.driven.Store(false)
	e.stopOnce.Do(func() { close(e.stop) })
	e.loop.Wait()
}

// pollTick, monitorTick and wakeRound are run's three cases on the Defer
// clock. A tick re-arms itself until Stop; a kicked round empties the wake
// slot before it runs, so a kick during the round arms the next one.
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

// run is the live engine's one loop: the poll ticker drives Tick, the
// monitor ticker the Eq. 2 sweep, and a kick (wake) drives TryBatch alone,
// so a round starts when the backlog crosses BatchBound, not on the next
// poll.
func (e *Engine) run() {
	defer e.loop.Done()
	//lint:ignore clockdiscipline the tickers only pace polling and the sweep; every scheduling decision reads the injected cfg.Clock
	poll, sweep := time.NewTicker(e.cfg.BatchPoll), time.NewTicker(e.cfg.MonitorPeriod)
	defer poll.Stop()
	defer sweep.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-poll.C:
			e.Tick()
		case <-sweep.C:
			e.TickMonitor()
		case <-e.wake:
			e.TryBatch()
		}
	}
}

package engine

import "time"

// Start launches what paces the engine; every host calls it once, after
// any recovery and before traffic: poll every Config.BatchPoll, and a
// round whenever a submit, a release, an attach or a worker turning
// willing finds more than BatchBound tasks waiting. With Config.Defer nil,
// one wall-clock loop makes those calls; with it set, Start arms them
// through Defer and launches no goroutine.
func (e *Engine) Start() {
	e.nextSweep = e.cfg.Clock.Now().Add(e.cfg.MonitorPeriod)
	if e.cfg.Defer != nil {
		e.driven.Store(true)
		e.cfg.Defer(e.cfg.BatchPoll, e.pollTick)
		if len(e.wake) > 0 {
			e.cfg.Defer(0, e.wakeRound) // kicked before Start
		}
		return
	}
	e.loop.Add(1)
	go e.run()
}

// Stop ends what Start launched: no poll or kicked round runs after it,
// and nothing re-arms. It is idempotent, and harmless on an engine never
// started.
func (e *Engine) Stop() {
	e.driven.Store(false)
	e.stopOnce.Do(func() { close(e.stop) })
	e.loop.Wait()
}

// poll is the engine's one periodic handler: the Eq. 2 sweep once the
// clock reaches nextSweep, which then moves to the first MonitorPeriod
// grid point past now (a stalled poll makes up no missed sweeps), then
// Tick, whose round can so rebind at once what the sweep freed.
func (e *Engine) poll() {
	if now := e.cfg.Clock.Now(); !now.Before(e.nextSweep) {
		e.sweep()
		e.nextSweep = e.nextSweep.Add((now.Sub(e.nextSweep)/e.cfg.MonitorPeriod + 1) * e.cfg.MonitorPeriod)
	}
	e.Tick()
}

// pollTick and wakeRound are run's two cases on the Defer clock. The poll
// re-arms itself until Stop; a kicked round empties the wake slot before
// it runs, so a kick during the round arms the next one.
func (e *Engine) pollTick(time.Time) {
	if e.driven.Load() {
		e.poll()
		e.cfg.Defer(e.cfg.BatchPoll, e.pollTick)
	}
}

func (e *Engine) wakeRound(time.Time) {
	select {
	case <-e.wake:
	default:
	}
	if e.driven.Load() {
		e.tryBatch()
	}
}

// run is the live engine's one loop: the BatchPoll ticker drives poll,
// and a kick (wake) drives tryBatch alone, so a round starts when the
// backlog crosses BatchBound, not on the next poll.
func (e *Engine) run() {
	defer e.loop.Done()
	//lint:ignore clockdiscipline the ticker only paces polling; every scheduling decision, the sweep's due time included, reads the injected cfg.Clock
	ticker := time.NewTicker(e.cfg.BatchPoll)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.poll()
		case <-e.wake:
			e.tryBatch()
		}
	}
}

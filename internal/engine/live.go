package engine

import "time"

// Start launches the live loops: Tick every Config.BatchPoll (retention
// GC, expiry of overdue unassigned tasks, the period half of the batch
// trigger, the shedder), TryBatch whenever a submit, a release, an attach
// or a worker turning willing finds more than BatchBound tasks waiting,
// and TickMonitor every Config.MonitorPeriod (the Eq. 2 sweep). Call it
// once, after any recovery and before traffic. A host that drives the
// ticks itself — the experiments harness on its virtual clock — never
// calls it.
func (e *Engine) Start() {
	e.loops.Add(2)
	go e.batchLoop()
	go e.monitorLoop()
}

// Stop ends the live loops and waits for both to return, so no tick runs
// after it. It is idempotent, and harmless on an engine never started.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.loops.Wait()
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

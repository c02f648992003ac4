package admission

import "react/internal/event"

// Tap is the controller's event-spine observer: attach it with
// Engine.Events().Tap(c.Tap). It feeds the load signals every admission
// decision reads — the ledger's live population, unassigned backlog and
// shed count, and the pooled fleet execution-time fitter — from the same
// lossless, per-task-ordered stream the journal trusts, so the controller
// never polls (or locks) the engine.
//
// Taps run under the task store's shard locks: this must stay fast, must
// not block, and must not call back into the engine. Everything here is
// a handful of atomic adds plus, on completions only, one short mutex
// hold to fold the sample into the fitter.
func (c *Controller) Tap(ev event.Event) {
	c.ledger.Observe(ev)
	if ev.Kind != event.KindComplete {
		return
	}
	if exec := ev.Record.ExecTime().Seconds(); exec > 0 {
		// Pool every worker's execution time into one fleet-wide
		// power-law fitter: the admission probability asks "can SOME
		// worker finish in time", so the fleet CCDF — not any single
		// profile — is the right distribution.
		c.fitMu.Lock()
		_ = c.fit.Add(exec) // rejects only non-positive samples, excluded above
		c.fitMu.Unlock()
	}
}

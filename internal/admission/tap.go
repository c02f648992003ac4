package admission

import "react/internal/event"

// Tap is the controller's event-spine observer. It feeds the one signal
// the engine's ledger does not carry — the pooled fleet execution-time
// fitter behind the probability gate — from the same lossless,
// per-task-ordered stream the journal trusts.
//
// Taps run under the task store's shard locks: this must stay fast, must
// not block, and must not call back into the engine. It is a no-op except
// on completions, which take one short mutex hold to fold the sample into
// the fitter.
func (c *Controller) Tap(ev event.Event) {
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

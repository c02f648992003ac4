package experiments

import (
	"react/internal/event"
	"react/internal/metrics"
)

// Loss attribution: every task that missed its deadline did so for one of a
// small set of reasons (event.LossKind), and the engine's ledger names it
// from the terminal event alone. This is the diagnostic the paper's prose
// reasons about informally ("the majority of the missed deadlines is
// observed before the needed tasks for the system training have been
// completed"; "when the tasks are eventually assigned to a worker they have
// already expired") — here it is computed, by the same fold a live reactd
// exports as react_deadline_miss_total.

// LossReport runs the §V.C scenario for the three techniques and renders
// each run's ledger — the "why did each miss happen" companion to Figure 5.
func LossReport(template ScenarioConfig, seed int64) FigureReport {
	cols := []string{"technique", "met", "missed"}
	for _, k := range event.LossKinds {
		cols = append(cols, string(k))
	}
	t := metrics.NewTable(cols...)
	for _, tech := range techniques(seed) {
		cfg := template
		cfg.Seed = seed
		cfg.Technique = tech
		res := RunScenario(cfg)
		n := res.Ledger.Counts()
		row := []any{res.Technique, n.OnTime, n.Completed - n.OnTime + n.Expired}
		for _, k := range event.LossKinds {
			row = append(row, res.Ledger.Missed(k))
		}
		t.AddRow(row...)
	}
	return FigureReport{
		ID:    "losses",
		Title: "missed-deadline attribution (companion to fig5)",
		Table: t,
		Notes: []string{
			"expired-in-queue dominates greedy's collapse; late-never-rescued dominates traditional; react's residual losses concentrate in failed rescues (training-phase tasks and repeat delays)",
		},
	}
}

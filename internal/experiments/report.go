package experiments

import (
	"fmt"
	"io"

	"react/internal/metrics"
)

// FigureReport is a rendered reproduction of one of the paper's figures: a
// table of the regenerated data plus notes comparing against the published
// values.
type FigureReport struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// Write renders the report.
func (r FigureReport) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if err := r.Table.Write(w); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Figures34 runs the matcher sweep once and renders Figure 3 (wall time)
// and Figure 4 (output weight). With cfg.Hungarian, Figure 4 gains a
// gap_pct column: how far each heuristic's weight falls short of the exact
// optimum at that task count.
func Figures34(cfg MatchBenchConfig) (fig3, fig4 FigureReport) {
	points := RunMatchBench(cfg)
	t3 := metrics.NewTable("algorithm", "cycles", "tasks", "edges", "time_ms")
	cols4 := []string{"algorithm", "cycles", "tasks", "weight", "matched"}
	optimum := map[int]float64{} // by task count
	if cfg.Hungarian {
		cols4 = append(cols4, "gap_pct")
		for _, p := range points {
			if p.Algorithm == "hungarian" {
				optimum[p.Tasks] = p.Weight
			}
		}
	}
	t4 := metrics.NewTable(cols4...)
	for _, p := range points {
		t3.AddRow(p.Algorithm, p.Cycles, p.Tasks, p.Edges, float64(p.Elapsed.Microseconds())/1000)
		row := []any{p.Algorithm, p.Cycles, p.Tasks, p.Weight, p.Matched}
		if opt := optimum[p.Tasks]; opt > 0 {
			row = append(row, 100*(1-p.Weight/opt))
		}
		t4.AddRow(row...)
	}
	fig3 = FigureReport{
		ID:    "fig3",
		Title: "matching wall time vs task count (1000 workers, full graph)",
		Table: t3,
		Notes: []string{
			"paper (Java/PlanetLab): greedy 99.7 s at 1000 tasks; react/metropolis 12 s at 1000 cycles, 45 s at 3000",
			"shape to check: greedy superlinear in tasks; react/metropolis linear in cycles, insensitive to task count",
		},
	}
	fig4 = FigureReport{
		ID:    "fig4",
		Title: "matching output weight vs task count (1000 workers, full graph)",
		Table: t4,
		Notes: []string{
			"paper: greedy near-optimal on full graphs; react above metropolis at equal cycles, and at 1000 cycles react beats metropolis at 3000",
		},
	}
	return fig3, fig4
}

// Figures5to8 runs the §V.C end-to-end scenario for the three techniques
// and renders Figures 5–8.
func Figures5to8(seed int64) (results []ScenarioResult, reports []FigureReport) {
	for _, tech := range []Technique{
		REACTTechnique(0, seed),
		GreedyTechnique(),
		TraditionalTechnique(seed),
	} {
		results = append(results, RunScenario(ScenarioConfig{Technique: tech, Seed: seed}))
	}

	t5 := metrics.NewTable("technique", "received", "ontime", "ontime_pct", "expired", "late")
	t6 := metrics.NewTable("technique", "received", "positive", "positive_pct")
	t7 := metrics.NewTable("technique", "mean_worker_exec_s", "p50_s", "p95_s", "reassignments")
	t8 := metrics.NewTable("technique", "mean_total_exec_s", "matcher_busy_s", "batches")
	for _, r := range results {
		t5.AddRow(r.Technique, r.Received, r.CompletedOnTime, 100*r.OnTimeFraction(), r.Expired, r.CompletedLate)
		t6.AddRow(r.Technique, r.Received, r.Positive, 100*r.PositiveFraction())
		t7.AddRow(r.Technique, r.MeanWorkerExec, r.WorkerExecP50, r.WorkerExecP95, r.Reassignments)
		t8.AddRow(r.Technique, r.MeanTotalExec, r.MatcherBusy, r.Batches)
	}
	reports = []FigureReport{
		{
			ID:    "fig5",
			Title: "tasks finished before deadline (750 workers, 9.375 tasks/s, 8371 tasks)",
			Table: t5,
			Notes: []string{
				"paper: react 6091/8371, traditional 4264/8371 (react +43%; abstract headline: up to 61% more deadline-met tasks); greedy rises until ~4200 then collapses",
				"series points for the cumulative curve: reactsim -fig 5 -curve",
			},
		},
		{
			ID:    "fig6",
			Title: "positive feedbacks",
			Table: t6,
			Notes: []string{"paper: react 4941 vs traditional 3066; greedy mirrors its fig5 collapse"},
		},
		{
			ID:    "fig7",
			Title: "average execution time per worker (final worker only)",
			Table: t7,
			Notes: []string{"paper: react shortest (reassignment rescues delayed tasks), traditional worst"},
		},
		{
			ID:    "fig8",
			Title: "average total execution time (incl. assignment and reassignment)",
			Table: t8,
			Notes: []string{"paper: react faster than traditional despite reassignments; greedy inflated by queueing"},
		},
	}
	return results, reports
}

// Figures910 runs the scalability sweep and renders Figures 9 and 10.
func Figures910(cfg ScaleConfig) (points []ScalePoint, fig9, fig10 FigureReport) {
	points = RunScalability(cfg)
	t9 := metrics.NewTable("workers", "rate", "technique", "received", "ontime_pct")
	t10 := metrics.NewTable("workers", "rate", "technique", "positive_pct")
	for _, p := range points {
		t9.AddRow(p.Workers, p.Rate, p.Technique, p.Received, p.OnTimePct)
		t10.AddRow(p.Workers, p.Rate, p.Technique, p.PositivePct)
	}
	fig9 = FigureReport{
		ID:    "fig9",
		Title: "% tasks before deadline vs scale (sizes 100..1000 at rates 1.5..12.5/s)",
		Table: t9,
		Notes: []string{
			"paper: react mildly affected by scale; greedy beats react at 100 workers but falls to 16% at 1000; traditional noticeably affected only at 1000",
		},
	}
	fig10 = FigureReport{
		ID:    "fig10",
		Title: "% positive feedback vs scale",
		Table: t10,
		Notes: []string{"paper: proportional to fig9 for all techniques"},
	}
	return points, fig9, fig10
}

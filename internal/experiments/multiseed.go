package experiments

import (
	"math"

	"react/internal/metrics"
)

// Multi-seed aggregation: the paper reports single runs; for reproduction
// confidence we re-run scenarios across seeds and report mean ± std of the
// headline metrics, exposing how much of any paper-vs-measured gap is seed
// noise versus model mismatch.

// Stat summarizes one metric across seeds.
type Stat struct {
	Mean, Std, Min, Max float64
}

func statOf(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	var w metrics.Welford
	for _, x := range xs {
		w.Observe(x)
	}
	return Stat{Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max()}
}

// Aggregate holds the cross-seed summary for one technique.
type Aggregate struct {
	Technique     string
	Seeds         int
	OnTimePct     Stat
	PositivePct   Stat
	WorkerExec    Stat // seconds
	TotalExec     Stat // seconds
	Reassignments Stat
	Expired       Stat
}

// RunScenarioSeeds runs the scenario once per seed and aggregates. The
// technique is rebuilt per seed via mk so each run gets an independent
// matcher RNG; template's own Technique and Seed fields are ignored.
func RunScenarioSeeds(mk func(seed int64) Technique, template ScenarioConfig, seeds []int64) Aggregate {
	var (
		ontime, positive, wexec, texec, reass, expired []float64
		name                                           string
	)
	for _, seed := range seeds {
		cfg := template
		cfg.Seed = seed
		cfg.Technique = mk(seed)
		res := RunScenario(cfg)
		name = res.Technique
		ontime = append(ontime, 100*res.OnTimeFraction())
		positive = append(positive, 100*res.PositiveFraction())
		wexec = append(wexec, res.MeanWorkerExec)
		texec = append(texec, res.MeanTotalExec)
		reass = append(reass, float64(res.Reassignments))
		expired = append(expired, float64(res.Expired))
	}
	return Aggregate{
		Technique:     name,
		Seeds:         len(seeds),
		OnTimePct:     statOf(ontime),
		PositivePct:   statOf(positive),
		WorkerExec:    statOf(wexec),
		TotalExec:     statOf(texec),
		Reassignments: statOf(reass),
		Expired:       statOf(expired),
	}
}

// SeedList builds [base, base+1, ..., base+n-1].
func SeedList(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// ConfidenceReport renders the three §V.C techniques across seeds as a
// figure-style table.
func ConfidenceReport(template ScenarioConfig, seeds []int64) FigureReport {
	t := metrics.NewTable("technique", "seeds", "ontime_pct_mean", "ontime_pct_std",
		"positive_pct_mean", "worker_exec_s", "total_exec_s")
	for i := range techniques(0) {
		mk := func(s int64) Technique { return techniques(s)[i] }
		agg := RunScenarioSeeds(mk, template, seeds)
		t.AddRow(agg.Technique, agg.Seeds,
			round2(agg.OnTimePct.Mean), round2(agg.OnTimePct.Std),
			round2(agg.PositivePct.Mean), round2(agg.WorkerExec.Mean), round2(agg.TotalExec.Mean))
	}
	return FigureReport{
		ID:    "confidence",
		Title: "figures 5-8 headline metrics across seeds (mean ± std)",
		Table: t,
		Notes: []string{"single-seed figures are representative when std is small relative to the technique gaps"},
	}
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

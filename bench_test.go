// Benchmarks regenerating every figure of the paper's evaluation (§V).
// One benchmark per figure (Figures 3–10), plus ablation benches for the
// design choices DESIGN.md calls out. Figure benchmarks report the figure's
// headline quantity as a custom metric so `go test -bench` output doubles
// as the reproduction record; EXPERIMENTS.md interprets the numbers.
package react_test

import (
	"testing"

	"react/internal/bipartite"
	"react/internal/engine"
	"react/internal/experiments"
	"react/internal/matching"
	"react/internal/wire"
)

// ---- Figures 3 and 4: matcher wall time and output weight ----
//
// The paper's setup: 1000 workers, a full bipartite graph, task counts up
// to 1000, uniform [0,1) weights. Figure 3 is the measured time; Figure 4
// the achieved weight. These run the real Go matchers (no modelled
// latency), so absolute times are far below the paper's Java numbers; the
// shape — Greedy superlinear, REACT/Metropolis linear in cycles, REACT's
// weight above Metropolis' — is the reproduction target.

func benchMatch(b *testing.B, algo string, cycles, tasks int) {
	cfg := experiments.MatchBenchConfig{
		Workers:    1000,
		TaskCounts: []int{tasks},
		Cycles:     []int{cycles},
		Seed:       42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pt experiments.MatchPoint
	for i := 0; i < b.N; i++ {
		points := experiments.RunMatchBench(cfg)
		for _, p := range points {
			if p.Algorithm == algo && p.Cycles == cycles {
				pt = p
			}
		}
	}
	// ns/op covers the whole sweep harness (graph build + every
	// algorithm); match_ms is this algorithm's own matching time — the
	// quantity Figure 3 plots.
	b.ReportMetric(float64(pt.Elapsed.Microseconds())/1000, "match_ms")
	b.ReportMetric(pt.Weight, "weight")
	b.ReportMetric(float64(pt.Matched), "matched")
}

func BenchmarkFig3Greedy1000Tasks(b *testing.B)          { benchMatch(b, "greedy", 0, 1000) }
func BenchmarkFig3REACT1000Cycles1000Tasks(b *testing.B) { benchMatch(b, "react-1000", 1000, 1000) }
func BenchmarkFig3REACT3000Cycles1000Tasks(b *testing.B) { benchMatch(b, "react-3000", 3000, 1000) }
func BenchmarkFig3Metropolis1000Cycles1000Tasks(b *testing.B) {
	benchMatch(b, "metropolis-1000", 1000, 1000)
}
func BenchmarkFig3Metropolis3000Cycles1000Tasks(b *testing.B) {
	benchMatch(b, "metropolis-3000", 3000, 1000)
}
func BenchmarkFig3Greedy100Tasks(b *testing.B) { benchMatch(b, "greedy", 0, 100) }
func BenchmarkFig4REACTvsMetropolis(b *testing.B) {
	// Figure 4's claim in one number: REACT weight at 1000 cycles minus
	// Metropolis weight at 3000 cycles (positive reproduces the paper).
	cfg := experiments.MatchBenchConfig{
		Workers:    1000,
		TaskCounts: []int{500},
		Cycles:     []int{1000, 3000},
		Seed:       42,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var react1000, metro3000 float64
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.RunMatchBench(cfg) {
			switch p.Algorithm {
			case "react-1000":
				react1000 = p.Weight
			case "metropolis-3000":
				metro3000 = p.Weight
			}
		}
	}
	b.ReportMetric(react1000, "react1000_weight")
	b.ReportMetric(metro3000, "metropolis3000_weight")
	b.ReportMetric(react1000-metro3000, "react_advantage")
}

// ---- Figures 5-8: the end-to-end §V.C scenario ----
//
// 750 workers, 9.375 tasks/s, 8371 tasks, batch bound 10, Eq.2 threshold
// 0.1, 1000 cycles. Each benchmark runs one technique's full scenario and
// reports the figure's quantity.

func benchScenario(b *testing.B, tech func(int64) experiments.Technique) experiments.ScenarioResult {
	b.Helper()
	var res experiments.ScenarioResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.RunScenario(experiments.ScenarioConfig{
			Technique: tech(42),
			Seed:      42,
		})
	}
	return res
}

func BenchmarkFig5REACTDeadlinesMet(b *testing.B) {
	res := benchScenario(b, func(s int64) experiments.Technique { return experiments.REACTTechnique(0, s) })
	b.ReportMetric(float64(res.CompletedOnTime), "ontime_tasks")
	b.ReportMetric(100*res.OnTimeFraction(), "ontime_pct")
}

func BenchmarkFig5GreedyDeadlinesMet(b *testing.B) {
	res := benchScenario(b, func(s int64) experiments.Technique { return experiments.GreedyTechnique() })
	b.ReportMetric(float64(res.CompletedOnTime), "ontime_tasks")
	b.ReportMetric(100*res.OnTimeFraction(), "ontime_pct")
}

func BenchmarkFig5TraditionalDeadlinesMet(b *testing.B) {
	res := benchScenario(b, experiments.TraditionalTechnique)
	b.ReportMetric(float64(res.CompletedOnTime), "ontime_tasks")
	b.ReportMetric(100*res.OnTimeFraction(), "ontime_pct")
}

func BenchmarkFig6PositiveFeedback(b *testing.B) {
	react := benchScenario(b, func(s int64) experiments.Technique { return experiments.REACTTechnique(0, s) })
	trad := experiments.RunScenario(experiments.ScenarioConfig{
		Technique: experiments.TraditionalTechnique(42), Seed: 42,
	})
	b.ReportMetric(float64(react.Positive), "react_positive")
	b.ReportMetric(float64(trad.Positive), "traditional_positive")
}

func BenchmarkFig7WorkerExecTime(b *testing.B) {
	react := benchScenario(b, func(s int64) experiments.Technique { return experiments.REACTTechnique(0, s) })
	trad := experiments.RunScenario(experiments.ScenarioConfig{
		Technique: experiments.TraditionalTechnique(42), Seed: 42,
	})
	b.ReportMetric(react.MeanWorkerExec, "react_exec_s")
	b.ReportMetric(trad.MeanWorkerExec, "traditional_exec_s")
}

func BenchmarkFig8TotalExecTime(b *testing.B) {
	react := benchScenario(b, func(s int64) experiments.Technique { return experiments.REACTTechnique(0, s) })
	trad := experiments.RunScenario(experiments.ScenarioConfig{
		Technique: experiments.TraditionalTechnique(42), Seed: 42,
	})
	b.ReportMetric(react.MeanTotalExec, "react_total_s")
	b.ReportMetric(trad.MeanTotalExec, "traditional_total_s")
}

// ---- Figures 9 and 10: the scalability sweep ----
//
// Sizes {100,250,500,750,1000} paired with rates {1.5,...,12.5}/s. One
// benchmark covers both figures (same runs); the reported metrics are the
// endpoints the paper highlights: REACT's and Greedy's on-time percentage
// at the largest scale.

func BenchmarkFig9And10Scalability(b *testing.B) {
	b.ReportAllocs()
	var points []experiments.ScalePoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = experiments.RunScalability(experiments.ScaleConfig{Seed: 42})
	}
	for _, p := range points {
		if p.Workers == 1000 {
			b.ReportMetric(p.OnTimePct, p.Technique+"_1000w_ontime_pct")
			b.ReportMetric(p.PositivePct, p.Technique+"_1000w_positive_pct")
		}
		if p.Workers == 100 {
			b.ReportMetric(p.OnTimePct, p.Technique+"_100w_ontime_pct")
		}
	}
}

// ---- Ablations: the design choices DESIGN.md calls out ----

// BenchmarkAblationNoMonitor removes the Eq. 2 reassignment monitor from
// REACT, isolating how much of Figure 5's gain comes from reassignment
// versus quality-aware matching.
func BenchmarkAblationNoMonitor(b *testing.B) {
	tech := experiments.REACTTechnique(0, 42)
	tech.Name = "react-nomonitor"
	var res experiments.ScenarioResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.RunScenario(experiments.ScenarioConfig{Technique: tech, Seed: 42, MonitorThreshold: -1})
	}
	b.ReportMetric(100*res.OnTimeFraction(), "ontime_pct")
	b.ReportMetric(float64(res.Reassignments), "reassignments")
}

// BenchmarkAblationNoPruning removes the Eq. 3 edge filter, so REACT may
// assign tasks to workers whose model says they cannot make the deadline.
// The threshold is set explicitly: NoPruning alone also turns Eq. 2 off.
func BenchmarkAblationNoPruning(b *testing.B) {
	tech := experiments.REACTTechnique(0, 42)
	tech.Name = "react-nopruning"
	tech.NoPruning = true
	var res experiments.ScenarioResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.RunScenario(experiments.ScenarioConfig{Technique: tech, Seed: 42,
			MonitorThreshold: engine.DefaultThreshold})
	}
	b.ReportMetric(100*res.OnTimeFraction(), "ontime_pct")
}

// BenchmarkAblationAdaptiveCycles compares the fixed 1000-cycle budget the
// paper uses against the adaptive budget it suggests (§IV.A), on a large
// full graph where fixed cycles starve.
func BenchmarkAblationAdaptiveCycles(b *testing.B) {
	for _, mode := range []string{"fixed1000", "adaptive"} {
		b.Run(mode, func(b *testing.B) {
			m := matching.REACT{Cycles: 1000}
			if mode == "adaptive" {
				m = matching.REACT{Adaptive: true}
			}
			g := fullGraph(500, 500)
			var weight float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match, _ := m.Match(g)
				weight = match.Weight()
			}
			b.ReportMetric(weight, "weight")
		})
	}
}

// BenchmarkAblationGreedyScanCost separates the greedy *policy* from the
// paper's Θ(V·E) *cost model*: identical assignments, different scan
// strategy.
func BenchmarkAblationGreedyScanCost(b *testing.B) {
	g := fullGraph(500, 500)
	b.Run("paper-VE-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.Greedy{}.Match(g)
		}
	})
	b.Run("indexed-E-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.GreedyIndexed{}.Match(g)
		}
	})
}

// ---- Wire transport: framing cost ----
//
// BenchmarkWireEncode measures the pooled codec's steady state on the hot
// frame shapes: encoding into a reused buffer must report 0 allocs/op —
// the whole point of replacing encoding/json on the push path.
// internal/wire's TestEncodeHotFramesZeroAllocs holds the same property in
// tier-1 via testing.AllocsPerRun.
func BenchmarkWireEncode(b *testing.B) {
	frames := []struct {
		name string
		m    wire.Message
	}{
		{"assign", wire.Message{Type: "assignment", Assignment: &wire.AssignmentPayload{
			TaskID: "t00001234", WorkerID: "w042", Category: "traffic",
			Description: "is the on-ramp at exit 14 jammed?",
			Lat:         37.9838, Lon: 23.7275, DeadlineMS: 60000, Reward: 0.25,
		}}},
		{"submit", wire.Message{Type: "submit", Seq: 7, Task: &wire.TaskPayload{
			ID: "t00001234", Lat: 37.9838, Lon: 23.7275, DeadlineMS: 60000,
			Reward: 0.25, Category: "traffic", Description: "is the on-ramp at exit 14 jammed?",
		}}},
		{"result", wire.Message{Type: "result", Result: &wire.ResultPayload{
			TaskID: "t00001234", WorkerID: "w042", Answer: "yes, jammed", MetDeadline: true,
		}}},
		{"event", wire.Message{Type: "event", Event: &wire.EventPayload{
			Seq: 991, Kind: "complete", TaskID: "t00001234", Worker: "w042",
			AtUnixMS: 1754550000123, Status: "completed", MetDeadline: true, Attempts: 1,
		}}},
	}
	for _, f := range frames {
		f := f
		b.Run(f.name, func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = wire.AppendFrame(buf[:0], &f.m)
			}
			_ = buf
		})
	}
}

func fullGraph(w, t int) *bipartite.Graph {
	return bipartite.Full(w, t, func(i, j int) float64 {
		return float64((i*31+j*17)%1000) / 1000
	})
}

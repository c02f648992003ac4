package experiments

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestMatchBenchSmall(t *testing.T) {
	cfg := MatchBenchConfig{
		Workers:    50,
		TaskCounts: []int{1, 10, 25},
		Cycles:     []int{200},
		Seed:       1,
		Hungarian:  true,
	}
	points := RunMatchBench(cfg)
	// greedy + react + metropolis + hungarian per task count.
	if want := 3 * 4; len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	byAlgoTasks := map[string]map[int]MatchPoint{}
	for _, p := range points {
		if p.Workers != 50 || p.Edges != 50*p.Tasks {
			t.Fatalf("bad point shape: %+v", p)
		}
		if p.Weight < 0 || p.Matched > p.Tasks {
			t.Fatalf("invalid output: %+v", p)
		}
		if byAlgoTasks[p.Algorithm] == nil {
			byAlgoTasks[p.Algorithm] = map[int]MatchPoint{}
		}
		byAlgoTasks[p.Algorithm][p.Tasks] = p
	}
	// Hungarian dominates everything at every size.
	for tasks := range byAlgoTasks["hungarian"] {
		opt := byAlgoTasks["hungarian"][tasks].Weight
		for algo, m := range byAlgoTasks {
			if p := m[tasks]; p.Weight > opt+1e-9 {
				t.Fatalf("%s weight %v above optimum %v at %d tasks", algo, p.Weight, opt, tasks)
			}
		}
	}
	// Greedy matches every task on a full graph with spare workers.
	if p := byAlgoTasks["greedy"][25]; p.Matched != 25 {
		t.Fatalf("greedy matched %d of 25", p.Matched)
	}
}

func TestMatchBenchDefaults(t *testing.T) {
	cfg := MatchBenchConfig{}.Normalize()
	if cfg.Workers != 1000 || len(cfg.TaskCounts) != 8 || len(cfg.Cycles) != 2 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestFullUniformGraphDeterministic(t *testing.T) {
	a := fullUniformGraph(20, 10, 7)
	b := fullUniformGraph(20, 10, 7)
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs", i)
		}
	}
	c := fullUniformGraph(20, 10, 8)
	same := true
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != c.Edge(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical graphs")
	}
}

func TestScalabilitySmall(t *testing.T) {
	cfg := ScaleConfig{
		Sizes: []int{60, 120},
		Rates: []float64{1.0, 2.0},
		Seed:  5,
		Span:  120 * time.Second,
	}
	points := RunScalability(cfg)
	if len(points) != 6 { // 2 sizes × 3 techniques
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.OnTimePct < 0 || p.OnTimePct > 100 || p.PositivePct < 0 || p.PositivePct > 100 {
			t.Fatalf("percentage out of range: %+v", p)
		}
		if p.Received == 0 {
			t.Fatalf("no tasks received: %+v", p)
		}
		if p.PositivePct > p.OnTimePct {
			t.Fatalf("positive exceeds on-time: %+v", p)
		}
	}
}

func TestScaleConfigMismatchedListsTruncated(t *testing.T) {
	cfg := ScaleConfig{Sizes: []int{10, 20, 30}, Rates: []float64{1}}.Normalize()
	if len(cfg.Sizes) != 1 || len(cfg.Rates) != 1 {
		t.Fatalf("normalize kept mismatched lists: %+v", cfg)
	}
}

func TestFigureReportsRender(t *testing.T) {
	for _, hungarian := range []bool{false, true} {
		fig3, fig4 := Figures34(MatchBenchConfig{
			Workers:    30,
			TaskCounts: []int{5},
			Cycles:     []int{100},
			Seed:       2,
			Hungarian:  hungarian,
		})
		for _, r := range []FigureReport{fig3, fig4} {
			var b strings.Builder
			if err := r.Write(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, r.ID) || !strings.Contains(out, "greedy") {
				t.Fatalf("%s rendered without content:\n%s", r.ID, out)
			}
			// The optimality gap rides Figure 4 only, and only when the
			// exact solver ran.
			if want := hungarian && r.ID == "fig4"; strings.Contains(out, "gap_pct") != want {
				t.Fatalf("%s (hungarian %v): gap_pct column present = %v:\n%s", r.ID, hungarian, !want, out)
			}
		}
	}
}

// TestLossReportMatchesGolden pins `reactsim -losses -quick -seed 7`: the
// attribution the ledger folds from terminal events is, byte for byte, the
// table the per-task timeline recorder it replaced produced.
func TestLossReportMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden_losses_seed7.txt")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := LossReport(ScenarioConfig{Workers: 150, Rate: 2, TargetTasks: 600}, 7).Write(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("losses report diverges from testdata/golden_losses_seed7.txt:\n%s\nwant:\n%s", b.String(), want)
	}
}

// matchesGolden fails t unless rep renders byte for byte as the checked-in
// `reactsim -fig N -seed 7` output for its figure.
func matchesGolden(t *testing.T, rep FigureReport) {
	t.Helper()
	path := "../../testdata/golden_" + rep.ID + "_seed7.txt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("%s diverges from %s:\n%s\nwant:\n%s", rep.ID, path, b.String(), want)
	}
}

// TestPaperShapes runs the full §V.C scenario at seed 7, asserts the
// qualitative claims of Figures 5–8, and pins each rendered figure to its
// golden. It covers ~15 simulated minutes per technique, so it is skipped
// under -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale scenario; run without -short")
	}
	results, reports := Figures5to8(7)
	byName := map[string]ScenarioResult{}
	for _, r := range results {
		byName[r.Technique] = r
	}
	react, greedy, trad := byName["react"], byName["greedy"], byName["traditional"]

	// Fig. 5: react well above traditional; paper measured +43% on-time.
	if react.CompletedOnTime <= trad.CompletedOnTime {
		t.Fatalf("react %d not above traditional %d", react.CompletedOnTime, trad.CompletedOnTime)
	}
	gain := float64(react.CompletedOnTime)/float64(trad.CompletedOnTime) - 1
	if gain < 0.20 {
		t.Fatalf("react gain over traditional only %.0f%%", 100*gain)
	}
	// Greedy collapses: final on-time below traditional.
	if greedy.CompletedOnTime >= trad.CompletedOnTime {
		t.Fatalf("greedy %d did not collapse below traditional %d",
			greedy.CompletedOnTime, trad.CompletedOnTime)
	}
	// Fig. 6: react's positive feedback above traditional's.
	if react.Positive <= trad.Positive {
		t.Fatalf("react positive %d not above traditional %d", react.Positive, trad.Positive)
	}
	// Fig. 7/8: react's execution times below traditional's.
	if react.MeanWorkerExec >= trad.MeanWorkerExec {
		t.Fatalf("react exec %.1fs not below traditional %.1fs", react.MeanWorkerExec, trad.MeanWorkerExec)
	}
	if react.MeanTotalExec >= trad.MeanTotalExec {
		t.Fatalf("react total %.1fs not below traditional %.1fs", react.MeanTotalExec, trad.MeanTotalExec)
	}
	for _, r := range reports {
		matchesGolden(t, r)
	}
}

// TestFigures910MatchGolden pins `reactsim -fig 9,10 -quick -seed 7`.
func TestFigures910MatchGolden(t *testing.T) {
	_, fig9, fig10 := Figures910(ScaleConfig{Sizes: []int{100, 250}, Rates: []float64{1.5, 3.125}, Seed: 7})
	matchesGolden(t, fig9)
	matchesGolden(t, fig10)
}

func TestRunScenarioSeeds(t *testing.T) {
	template := ScenarioConfig{Workers: 100, Rate: 1.5, TargetTasks: 300}
	agg := RunScenarioSeeds(func(s int64) Technique { return REACTTechnique(500, s) },
		template, SeedList(1, 3))
	if agg.Seeds != 3 || agg.Technique != "react" {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.OnTimePct.Mean <= 0 || agg.OnTimePct.Mean > 100 {
		t.Fatalf("ontime mean = %v", agg.OnTimePct.Mean)
	}
	if agg.OnTimePct.Min > agg.OnTimePct.Mean || agg.OnTimePct.Max < agg.OnTimePct.Mean {
		t.Fatalf("stat ordering broken: %+v", agg.OnTimePct)
	}
	if agg.OnTimePct.Std < 0 {
		t.Fatalf("negative std: %+v", agg.OnTimePct)
	}
}

func TestSeedList(t *testing.T) {
	got := SeedList(10, 3)
	if len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("SeedList = %v", got)
	}
}

func TestConfidenceReportRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run scenario; run without -short")
	}
	template := ScenarioConfig{Workers: 100, Rate: 1.5, TargetTasks: 300}
	rep := ConfidenceReport(template, SeedList(1, 2))
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"react", "greedy", "traditional", "ontime_pct_mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("confidence report missing %q:\n%s", want, out)
		}
	}
}

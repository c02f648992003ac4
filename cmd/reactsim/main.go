// Command reactsim regenerates the paper's evaluation figures on the
// deterministic simulation substrate.
//
// Usage:
//
//	reactsim -fig all            # every figure (3-10)
//	reactsim -fig 5              # one figure
//	reactsim -fig 5 -curve       # include the cumulative series points
//	reactsim -fig 5 -csv out/    # write the cumulative series as CSV
//	reactsim -fig 3 -quick       # reduced sweep for a fast smoke run
//	reactsim -fig 3,4 -hungarian # add the exact optimum and fig 4's gap_pct
//	reactsim -seed 7             # change the workload seed
//	reactsim -study              # the synthesized §V.C case study
//	reactsim -seeds 5            # figs 5-8 across seeds (mean ± std)
//	reactsim -losses             # missed-deadline attribution
//	reactsim -sensitivity        # deadline-band and Eq.2-threshold sweeps
//
// Figures 3/4 report measured Go wall time of the real matchers; Figures
// 5-10 run the end-to-end crowdsourcing scenario under the modelled matcher
// latency documented in internal/experiments.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"react/internal/crowd"
	"react/internal/experiments"
	"react/internal/metrics"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3..10 or 'all'")
	seed := flag.Int64("seed", 42, "workload seed")
	curve := flag.Bool("curve", false, "print cumulative series points for figs 5/6")
	csvDir := flag.String("csv", "", "directory to write fig 5/6 cumulative series as CSV (empty disables)")
	quick := flag.Bool("quick", false, "reduced problem sizes for a fast run: figs 3/4 and 9/10, -seeds, -losses and -sensitivity (figs 5-8 always run the full 750-worker scenario)")
	hungarian := flag.Bool("hungarian", false, "add the exact Hungarian reference to figs 3/4 (fig 4 gains a gap_pct column)")
	study := flag.Bool("study", false, "print the synthesized CrowdFlower case study (§V.C) and exit")
	seeds := flag.Int("seeds", 0, "run the figs 5-8 scenario across N seeds and print mean±std (0 disables)")
	losses := flag.Bool("losses", false, "print the missed-deadline attribution table and exit")
	sensitivity := flag.Bool("sensitivity", false, "print deadline-band and Eq.2-threshold sensitivity sweeps and exit")
	flag.Parse()

	if *study {
		printStudy(*seed)
		return
	}
	// The scenario -seeds, -losses and -sensitivity run: the paper's
	// §V.C setup, or with -quick 150 workers at 2 tasks/s for 600 tasks.
	template := experiments.ScenarioConfig{}
	if *quick {
		template = experiments.ScenarioConfig{Workers: 150, Rate: 2, TargetTasks: 600}
	}
	if *seeds > 0 {
		experiments.ConfidenceReport(template, experiments.SeedList(*seed, *seeds)).Write(os.Stdout)
		return
	}
	if *losses {
		experiments.LossReport(template, *seed).Write(os.Stdout)
		return
	}
	if *sensitivity {
		experiments.DeadlineSensitivity(*seed, template).Write(os.Stdout)
		experiments.ThresholdSensitivity(*seed, template).Write(os.Stdout)
		return
	}

	want := map[string]bool{}
	if *fig == "all" {
		for f := 3; f <= 10; f++ {
			want[strconv.Itoa(f)] = true
		}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	if want["3"] || want["4"] {
		cfg := experiments.MatchBenchConfig{Seed: *seed, Hungarian: *hungarian}
		if *quick {
			cfg.Workers = 200
			cfg.TaskCounts = []int{1, 50, 100, 200}
		}
		fig3, fig4 := experiments.Figures34(cfg)
		if want["3"] {
			fig3.Write(os.Stdout)
		}
		if want["4"] {
			fig4.Write(os.Stdout)
		}
	}

	if want["5"] || want["6"] || want["7"] || want["8"] {
		results, reports := experiments.Figures5to8(*seed)
		for _, r := range reports {
			if want[strings.TrimPrefix(r.ID, "fig")] {
				r.Write(os.Stdout)
			}
		}
		if *csvDir != "" {
			if err := writeCurveCSVs(*csvDir, results); err != nil {
				fmt.Fprintln(os.Stderr, "reactsim:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote cumulative series CSVs to %s\n\n", *csvDir)
		}
		if *curve {
			for _, res := range results {
				fmt.Printf("curve %s (received → on-time):", res.Technique)
				for _, p := range res.OnTimeSeries.Downsample(12) {
					fmt.Printf(" (%.0f,%.0f)", p[0], p[1])
				}
				fmt.Println()
				fmt.Printf("curve %s (received → positive):", res.Technique)
				for _, p := range res.PositiveSeries.Downsample(12) {
					fmt.Printf(" (%.0f,%.0f)", p[0], p[1])
				}
				fmt.Println()
			}
			fmt.Println()
		}
	}

	if want["9"] || want["10"] {
		cfg := experiments.ScaleConfig{Seed: *seed}
		if *quick {
			cfg.Sizes = []int{100, 250}
			cfg.Rates = []float64{1.5, 3.125}
		}
		_, fig9, fig10 := experiments.Figures910(cfg)
		if want["9"] {
			fig9.Write(os.Stdout)
		}
		if want["10"] {
			fig10.Write(os.Stdout)
		}
	}
}

// printStudy regenerates the §V.C case study: the synthetic CrowdFlower
// dataset whose marginals (half the responses inside the 20 s proposed
// time, 70 % of trust scores above 0.5, a tail reaching hours) calibrate
// the end-to-end experiments' 60-120 s deadlines.
func printStudy(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	_, report := crowd.SynthesizeStudy(10000, rng)
	fmt.Println("== case study: synthesized CrowdFlower traffic-estimation responses (§V.C) ==")
	fmt.Printf("observations          %d\n", report.N)
	fmt.Printf("median response       %v   (proposed task time: 20s)\n", report.MedianResponse.Round(time.Second))
	fmt.Printf("within 20s            %.1f%%  (paper: 50%%)\n", 100*report.FracUnder20s)
	fmt.Printf("trust > 0.5           %.1f%%  (paper: 70%%)\n", 100*report.FracTrustAbove50)
	fmt.Printf("slowest response      %v  (paper: up to 6 hours)\n", report.MaxResponse.Round(time.Minute))
	fmt.Printf("derived deadlines     %v - %v\n", report.SuggestedDeadlines[0], report.SuggestedDeadlines[1])
}

// writeCurveCSVs dumps each technique's cumulative fig-5/6 series to
// <dir>/<technique>-{ontime,positive}.csv.
func writeCurveCSVs(dir string, results []experiments.ScenarioResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		for _, s := range []*metrics.Series{res.OnTimeSeries, res.PositiveSeries} {
			f, err := os.Create(filepath.Join(dir, s.Name()+".csv"))
			if err != nil {
				return err
			}
			if err := s.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

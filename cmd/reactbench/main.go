// Command reactbench sweeps the matching algorithms over configurable graph
// shapes and prints measured wall time, output weight, and — when the exact
// solver is enabled — the optimality gap of each heuristic. It generalizes
// the Figure 3/4 experiment for ad-hoc exploration.
//
// Usage:
//
//	reactbench -workers 1000 -tasks 1,10,100,1000 -cycles 1000,3000
//	reactbench -workers 200 -tasks 200 -hungarian   # with optimality gaps
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"react/internal/experiments"
	"react/internal/metrics"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	workers := flag.Int("workers", 1000, "worker count (graph rows)")
	tasks := flag.String("tasks", "1,10,50,100,250,500,750,1000", "comma-separated task counts")
	cycles := flag.String("cycles", "1000,3000", "comma-separated cycle budgets for REACT/Metropolis")
	seed := flag.Int64("seed", 42, "weight seed")
	hungarian := flag.Bool("hungarian", false, "also run the exact O(n^3) solver and report optimality gaps")
	flag.Parse()

	taskCounts, err := parseInts(*tasks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactbench:", err)
		os.Exit(2)
	}
	cycleCounts, err := parseInts(*cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reactbench:", err)
		os.Exit(2)
	}

	points := experiments.RunMatchBench(experiments.MatchBenchConfig{
		Workers:    *workers,
		TaskCounts: taskCounts,
		Cycles:     cycleCounts,
		Seed:       *seed,
		Hungarian:  *hungarian,
	})

	// Optimal weight per task count, if available, for gap reporting.
	opt := map[int]float64{}
	for _, p := range points {
		if p.Algorithm == "hungarian" {
			opt[p.Tasks] = p.Weight
		}
	}

	table := metrics.NewTable("algorithm", "tasks", "edges", "time_ms", "weight", "matched", "gap_pct")
	for _, p := range points {
		gap := "-"
		if o, ok := opt[p.Tasks]; ok && o > 0 {
			gap = fmt.Sprintf("%.2f", 100*(1-p.Weight/o))
		}
		table.AddRow(p.Algorithm, p.Tasks, p.Edges,
			float64(p.Elapsed.Microseconds())/1000, p.Weight, p.Matched, gap)
	}
	if err := table.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reactbench:", err)
		os.Exit(1)
	}
}

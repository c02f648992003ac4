// Overload: the paper's future-work remedy (§V.D, §VII). At large graph
// sizes and rates "the task assignment process cannot be sustained by the
// system ... One possible solution is to split the regions so that each of
// the servers would contain sufficient workers and tasks without being
// overloaded."
//
// This example shows both halves on the deterministic simulation substrate:
//
//  1. one region server with the whole metropolitan crowd (2000 workers,
//     40 tasks/s, cycle budget scaled up for the larger graph) drowns in
//     matcher latency and misses deadlines; then
//  2. the load-adaptive quadtree (tree.go) splits the area,
//     and the same workload sharded across the four child regions — each
//     its own REACT server — meets its deadlines again.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"react/internal/experiments"
	"react/internal/region"
)

func main() {
	const (
		totalWorkers = 2000
		totalRate    = 40.0 // tasks/s across the metro area
		span         = 180 * time.Second
		seed         = 7
	)

	// Part 1: the quadtree decides the decomposition. Register the crowd's
	// locations; the root splits once its load passes the per-server
	// capacity.
	area := region.Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.2, MaxLon: 24.0}
	tree, err := NewTree(area, 600, 1)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	locations := make([]region.Point, totalWorkers)
	for i := range locations {
		locations[i] = area.RandomPoint(rng)
		tree.Add(locations[i])
	}
	// Count per leaf under the *final* decomposition (workers registered
	// before the split were credited to the root at Add time).
	counts := map[string]int{}
	for _, loc := range locations {
		counts[tree.Locate(loc)]++
	}
	fmt.Printf("quadtree split the area %d time(s); leaves:\n", tree.Splits())
	for _, leaf := range tree.Leaves() {
		fmt.Printf("  %-8s %4d workers  %v\n", leaf.ID, counts[leaf.ID], leaf.Bounds)
	}

	// Part 2a: one server for everything, cycles scaled to the graph size
	// as §IV.A prescribes for large graphs.
	single := experiments.RunScenario(experiments.ScenarioConfig{
		Technique:   experiments.REACTTechnique(2000, seed),
		Workers:     totalWorkers,
		Rate:        totalRate,
		TargetTasks: int(totalRate * span.Seconds()),
		Seed:        seed,
	})

	// Part 2b: four region servers, each with a quarter of the crowd and a
	// quarter of the stream (locations are uniform, so the quadtree shards
	// evenly), back at the default 1000-cycle budget.
	var splitOnTime, splitReceived int
	for i := 0; i < 4; i++ {
		r := experiments.RunScenario(experiments.ScenarioConfig{
			Technique:   experiments.REACTTechnique(1000, seed+int64(i)),
			Workers:     totalWorkers / 4,
			Rate:        totalRate / 4,
			TargetTasks: int(totalRate / 4 * span.Seconds()),
			Seed:        seed + int64(i),
		})
		splitOnTime += r.CompletedOnTime
		splitReceived += r.Received
	}

	fmt.Printf("\n%-22s %-10s %-10s %s\n", "deployment", "received", "on-time", "on-time %")
	fmt.Printf("%-22s %-10d %-10d %.1f%%\n", "single region server",
		single.Received, single.CompletedOnTime, 100*single.OnTimeFraction())
	fmt.Printf("%-22s %-10d %-10d %.1f%%\n", "4 split regions",
		splitReceived, splitOnTime, 100*float64(splitOnTime)/float64(splitReceived))
	fmt.Printf("\nsingle-server matcher spent %.0fs of the %.0fs experiment matching (queueing!)\n",
		single.MatcherBusy, span.Seconds())
}

package schedule_test

import (
	"fmt"
	"time"

	"react/internal/clock"
	"react/internal/matching"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// One scheduling batch end to end: snapshot workers and tasks, build the
// pruned weighted graph, match, and read the assignments. The hopeless
// pairing (a 10-second deadline against a worker who historically needs
// 10-15 s) never even becomes an edge.
func Example() {
	reg := profile.NewRegistry()
	athens := region.Point{Lat: 37.98, Lon: 23.73}
	fast, _ := reg.Register("fast", athens)
	slow, _ := reg.Register("slow", athens)
	for _, secs := range []float64{2, 3, 4} {
		fast.RecordCompletion("traffic", secs, true)
	}
	for _, secs := range []float64{10, 12, 15} {
		slow.RecordCompletion("traffic", secs, true)
	}

	now := clock.Epoch
	tasks := []taskq.Task{
		{ID: "urgent", Deadline: now.Add(10 * time.Second), Category: "traffic"},
		{ID: "normal", Deadline: now.Add(2 * time.Minute), Category: "traffic"},
	}

	g, build := schedule.BuildGraph(schedule.Config{}, reg.Available(), tasks, now)
	match, _ := matching.Greedy{}.Match(g)
	assigned := match.Assignments()
	fmt.Printf("urgent → %s\n", assigned["urgent"])
	fmt.Printf("normal → %s\n", assigned["normal"])
	fmt.Printf("edges built: %d, pruned by Eq.3: %d\n", build.Edges, build.PrunedProb)
	// Output:
	// urgent → fast
	// normal → slow
	// edges built: 3, pruned by Eq.3: 1
}

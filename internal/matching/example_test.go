package matching_test

import (
	"fmt"
	"math/rand"

	"react/internal/bipartite"
	"react/internal/matching"
)

// Build a small batch graph and compare the paper's heuristic against the
// exact optimum.
func Example() {
	b := bipartite.NewBuilder(3, 2)
	for _, w := range []string{"alice", "bob", "carol"} {
		b.AddWorker(w)
	}
	for _, t := range []string{"traffic-check", "photo-tag"} {
		b.AddTask(t)
	}
	b.AddEdge("alice", "traffic-check", 0.9) // alice is the traffic expert
	b.AddEdge("alice", "photo-tag", 0.4)
	b.AddEdge("bob", "traffic-check", 0.7)
	b.AddEdge("carol", "photo-tag", 0.8)
	g := b.Build()

	react, _ := matching.REACT{Cycles: 200, Rand: rand.New(rand.NewSource(1))}.Match(g)
	exact, _ := matching.Hungarian{}.Match(g)
	fmt.Printf("react:  %s\n", react.Assignments()["traffic-check"])
	fmt.Printf("weight: react %.1f vs optimal %.1f\n", react.Weight(), exact.Weight())
	// Output:
	// react:  alice
	// weight: react 1.7 vs optimal 1.7
}

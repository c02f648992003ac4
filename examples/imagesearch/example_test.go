package main

import (
	"fmt"
	"time"

	"react/internal/taskq"
)

// Replicate a validation question three ways, collect whatever arrives
// before the deadline, and take the majority.
func Example() {
	votes := NewCollector(0) // strict majority of replicas
	tasks, _ := votes.Plan(taskq.Task{
		ID:       "img-42",
		Deadline: time.Now().Add(time.Minute),
		Category: "image-validation",
	}, 3)
	fmt.Println("replicas:", len(tasks))

	// Two answers arrive in time; the third worker was too slow.
	votes.Vote(tasks[0].ID, "yes")
	votes.Vote(tasks[1].ID, "yes")

	v, _ := votes.Verdict("img-42")
	fmt.Printf("verdict=%s votes=%d/%d quorum=%v\n", v.Answer, v.Votes, v.Total, v.Quorum)
	// Output:
	// replicas: 3
	// verdict=yes votes=2/2 quorum=true
}

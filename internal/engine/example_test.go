package engine_test

import (
	"fmt"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

// A worker who typically answers in 5-9 seconds has been holding a task for
// 45 of its 90 seconds: Eq. 2 says the window probability has collapsed and
// the monitor orders a reassignment.
func ExampleMonitor_Evaluate() {
	reg := profile.NewRegistry()
	w, _ := reg.Register("flaky", region.Point{Lat: 37.98, Lon: 23.73})
	for _, secs := range []float64{5, 7, 9, 6} {
		w.RecordCompletion("traffic", secs, true)
	}

	assignedAt := clock.Epoch
	rec := taskq.Record{
		Task:       taskq.Task{ID: "t1", Deadline: assignedAt.Add(90 * time.Second), Category: "traffic"},
		Status:     taskq.Assigned,
		Worker:     "flaky",
		AssignedAt: assignedAt,
	}

	monitor := engine.Monitor{} // paper defaults: threshold 0.1, history 3
	early := monitor.Evaluate(w, rec, assignedAt.Add(3*time.Second))
	late := monitor.Evaluate(w, rec, assignedAt.Add(45*time.Second))
	fmt.Printf("t=3s  reassign=%v (%s)\n", early.Reassign, early.Reason)
	fmt.Printf("t=45s reassign=%v (%s)\n", late.Reassign, late.Reason)
	// Output:
	// t=3s  reassign=false (probability above threshold)
	// t=45s reassign=true (probability below threshold)
}

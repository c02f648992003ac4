package engine

import (
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

var athens = region.Point{Lat: 37.98, Lon: 23.73}

func seasoned(id string, execTimes ...float64) *profile.Profile {
	r := profile.NewRegistry()
	p, _ := r.Register(id, athens)
	for _, e := range execTimes {
		p.RecordCompletion("traffic", e, true)
	}
	return p
}

func assignedRecord(taskID, worker string, assignedAt time.Time, deadline time.Duration) taskq.Record {
	return taskq.Record{
		Task: taskq.Task{
			ID:       taskID,
			Deadline: assignedAt.Add(deadline),
			Category: "traffic",
		},
		Status:     taskq.Assigned,
		Worker:     worker,
		AssignedAt: assignedAt,
		Attempts:   1,
	}
}

func TestMonitorNormalizeDefaults(t *testing.T) {
	m := Monitor{}.Normalize()
	if m.Threshold != DefaultThreshold {
		t.Fatalf("defaults = %+v", m)
	}
}

func TestTrainingPhaseNeverReassigns(t *testing.T) {
	p := seasoned("w", 5, 8) // only 2 samples < DefaultMinHistory of 3
	rec := assignedRecord("t1", "w", clock.Epoch, 60*time.Second)
	// Even with the deadline nearly gone, training workers are untouched.
	d := Monitor{}.Evaluate(p, rec, clock.Epoch.Add(59*time.Second))
	if d.Reassign || d.Reason != ReasonNoHistory {
		t.Fatalf("decision = %+v", d)
	}
}

func TestFreshAssignmentHealthy(t *testing.T) {
	// Worker finishes in 5-10s; the 90s deadline was just granted. Eq. 2 is
	// near 1 and the task stays put.
	p := seasoned("w", 5, 7, 9, 6, 8)
	rec := assignedRecord("t1", "w", clock.Epoch, 90*time.Second)
	d := Monitor{}.Evaluate(p, rec, clock.Epoch.Add(2*time.Second))
	if d.Reassign {
		t.Fatalf("fresh assignment reassigned: %+v", d)
	}
	if d.Reason != ReasonHealthy || d.Probability < 0.5 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestDelayedWorkerTriggersReassignment(t *testing.T) {
	// Typical completions 5-9s. After 60 of 90 seconds the window
	// probability has collapsed: the worker has plainly abandoned the task.
	p := seasoned("w", 5, 7, 9, 6, 8)
	rec := assignedRecord("t1", "w", clock.Epoch, 90*time.Second)
	d := Monitor{}.Evaluate(p, rec, clock.Epoch.Add(60*time.Second))
	if !d.Reassign || d.Reason != ReasonReassign {
		t.Fatalf("decision = %+v", d)
	}
	if d.Probability >= DefaultThreshold {
		t.Fatalf("probability = %v, expected < %v", d.Probability, DefaultThreshold)
	}
}

func TestProbabilityMonotoneOverElapsedTime(t *testing.T) {
	p := seasoned("w", 5, 7, 9, 6, 8)
	rec := assignedRecord("t1", "w", clock.Epoch, 120*time.Second)
	prev := 2.0
	for _, at := range []time.Duration{1, 5, 10, 20, 40, 80} {
		d := Monitor{}.Evaluate(p, rec, clock.Epoch.Add(at*time.Second))
		if d.Probability > prev+1e-12 {
			t.Fatalf("Eq.2 increased at %v: %v > %v", at, d.Probability, prev)
		}
		prev = d.Probability
	}
}

func TestExpiredTaskNotReassigned(t *testing.T) {
	p := seasoned("w", 5, 7, 9)
	rec := assignedRecord("t1", "w", clock.Epoch, 30*time.Second)
	d := Monitor{}.Evaluate(p, rec, clock.Epoch.Add(31*time.Second))
	if d.Reassign || d.Reason != ReasonExpired {
		t.Fatalf("decision = %+v", d)
	}
}

func TestCustomThreshold(t *testing.T) {
	p := seasoned("w", 5, 7, 9, 6, 8)
	rec := assignedRecord("t1", "w", clock.Epoch, 90*time.Second)
	now := clock.Epoch.Add(15 * time.Second)
	strict := Monitor{Threshold: 0.95}.Evaluate(p, rec, now)
	lax := Monitor{Threshold: 0.001}.Evaluate(p, rec, now)
	if !strict.Reassign {
		t.Fatalf("strict threshold did not reassign: %+v", strict)
	}
	if lax.Reassign {
		t.Fatalf("lax threshold reassigned: %+v", lax)
	}
}

func TestMonitorSweep(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	tm := NewTaskStore(clk, 1)
	reg := profile.NewRegistry()

	// steady: typically finishes in 50-90s, so at the sweep instant (60s
	// elapsed, 300s deadline) it still looks healthy. slow: typically 5-9s,
	// so 60s elapsed means it has abandoned the task. ghost: departs after
	// taking a task. trainee: too little history.
	for _, id := range []string{"steady", "slow", "ghost", "trainee"} {
		p, _ := reg.Register(id, athens)
		switch id {
		case "steady":
			for _, e := range []float64{50, 70, 90, 60} {
				p.RecordCompletion("traffic", e, true)
			}
		case "slow", "ghost":
			for _, e := range []float64{5, 7, 9, 6} {
				p.RecordCompletion("traffic", e, true)
			}
		case "trainee":
			p.RecordCompletion("traffic", 5, true)
		}
	}
	submit := func(id string, deadline time.Duration, worker string) {
		if err := tm.Submit(taskq.Task{ID: id, Deadline: clk.Now().Add(deadline), Category: "traffic"}); err != nil {
			t.Fatal(err)
		}
		if err := tm.Assign(id, worker); err != nil {
			t.Fatal(err)
		}
	}
	submit("t-steady", 300*time.Second, "steady")
	submit("t-slow", 90*time.Second, "slow")
	submit("t-ghost", 300*time.Second, "ghost")
	submit("t-trainee", 90*time.Second, "trainee")
	reg.Deregister("ghost")

	clk.Advance(60 * time.Second)
	decisions := Monitor{}.Sweep(reg, tm, clk.Now())
	if len(decisions) != 4 {
		t.Fatalf("sweep returned %d decisions", len(decisions))
	}
	byTask := map[string]Decision{}
	for _, d := range decisions {
		byTask[d.TaskID] = d
	}
	if d := byTask["t-steady"]; d.Reassign || d.Reason != ReasonHealthy {
		t.Fatalf("t-steady: %+v", d)
	}
	if d := byTask["t-slow"]; !d.Reassign || d.Reason != ReasonReassign {
		t.Fatalf("t-slow: %+v", d)
	}
	if d := byTask["t-ghost"]; !d.Reassign || d.Reason != ReasonNoWorker {
		t.Fatalf("t-ghost: %+v", d)
	}
	if d := byTask["t-trainee"]; d.Reassign || d.Reason != ReasonNoHistory {
		t.Fatalf("t-trainee: %+v", d)
	}
}

func TestMonitorSweepGhostExpired(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	tm := NewTaskStore(clk, 1)
	reg := profile.NewRegistry()
	p, _ := reg.Register("ghost", athens)
	_ = p
	tm.Submit(taskq.Task{ID: "t", Deadline: clk.Now().Add(30 * time.Second), Category: "traffic"})
	tm.Assign("t", "ghost")
	reg.Deregister("ghost")
	clk.Advance(60 * time.Second) // past the deadline
	decisions := Monitor{}.Sweep(reg, tm, clk.Now())
	if len(decisions) != 1 || decisions[0].Reassign {
		t.Fatalf("expired ghost task reassigned: %+v", decisions)
	}
}

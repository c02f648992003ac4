package engine

import (
	"errors"
	"testing"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/event"
	"react/internal/matching"
	"react/internal/schedule"
	"react/internal/taskq"
)

// newGated builds an engine with the admission plane on, a virtual clock,
// and a tap recording every spine event in order.
func newGated(acfg admission.Config) (*Engine, *clock.Virtual, *[]event.Event) {
	clk := clock.NewVirtual(testEpoch)
	e := New(Config{
		Clock:     clk,
		Matcher:   matching.Greedy{},
		Schedule:  schedule.Config{BatchBound: 1, BatchPeriod: time.Second},
		Shards:    2,
		Admission: &acfg,
	}, Hooks{})
	var seen []event.Event
	e.Events().Tap(func(ev event.Event) { seen = append(seen, ev) })
	return e, clk, &seen
}

// TestSubmitFromRunsGates drives one engine through every verdict the
// plane can reach: each rejection is the typed error and leaves no trace
// in the store or on the spine, an admission leaves both, and Tick sheds
// a backlog held above the CoDel target.
func TestSubmitFromRunsGates(t *testing.T) {
	e, clk, seen := newGated(admission.Config{
		ProbFloor:      0.5,
		MinSamples:     1,
		MaxInflight:    4,
		RequesterRate:  1,
		RequesterBurst: 1,
		ShedTarget:     500 * time.Millisecond,
		ShedInterval:   200 * time.Millisecond,
	})
	mustAttach(t, e, "w1")

	rejected := func(requester string, task taskq.Task, want admission.Status) {
		t.Helper()
		before := len(*seen)
		d, err := e.SubmitFrom(requester, task)
		var rej *admission.RejectionError
		if !errors.As(err, &rej) || d.Status != want || rej.Decision != d {
			t.Fatalf("SubmitFrom(%s) = %+v, %v; want typed %s rejection", task.ID, d, err, want)
		}
		if _, ok := e.Tasks().Get(task.ID); ok {
			t.Fatalf("rejected task %s reached the store", task.ID)
		}
		if len(*seen) != before {
			t.Fatalf("rejected task %s reached the spine: %+v", task.ID, (*seen)[before:])
		}
	}
	accepted := func(requester string, task taskq.Task) {
		t.Helper()
		before := len(*seen)
		if d, err := e.SubmitFrom(requester, task); err != nil || !d.Admitted() {
			t.Fatalf("SubmitFrom(%s) = %+v, %v; want admitted", task.ID, d, err)
		}
		if rec, ok := e.Tasks().Get(task.ID); !ok || rec.Status != taskq.Unassigned {
			t.Fatalf("admitted task %s not waiting in the store: %+v", task.ID, rec)
		}
		if len(*seen) != before+1 || (*seen)[before].Kind != event.KindSubmit || (*seen)[before].Task != task.ID {
			t.Fatalf("admitted task %s: spine saw %+v, want one submit", task.ID, (*seen)[before:])
		}
	}

	// Rate: one token per requester; the second submission in the same
	// instant is over the limit and is told when to come back.
	accepted("r", testTask("a1", clk))
	rejected("r", testTask("a2", clk), admission.StatusRejectedRate)
	if d, _ := e.SubmitFrom("r", testTask("a3", clk)); d.RetryAfter <= 0 {
		t.Fatalf("rate rejection carries no retry-after: %+v", d)
	}

	// Shedder: w1 takes a1, two more wait behind it with nobody to serve
	// them. The first Tick past the target arms CoDel, the next one past
	// the interval sheds the earliest deadline with CauseShed.
	e.Tick()
	if rec, _ := e.Tasks().Get("a1"); rec.Worker != "w1" {
		t.Fatalf("a1 not bound to w1: %+v", rec)
	}
	b1, b2 := testTask("b1", clk), testTask("b2", clk)
	b2.Deadline = b2.Deadline.Add(-time.Second)
	accepted("", b1)
	accepted("", b2)
	clk.Advance(600 * time.Millisecond)
	e.Tick()
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("shed on the arming tick: %+v", st)
	}
	clk.Advance(200 * time.Millisecond)
	e.Tick()
	last := (*seen)[len(*seen)-1]
	if last.Kind != event.KindExpire || last.Cause != taskq.CauseShed || last.Task != "b2" {
		t.Fatalf("last spine event %+v, want b2 expired with cause shed", last)
	}
	if st := e.Stats(); st.Shed != 1 || st.Expired != 1 {
		t.Fatalf("stats after one shed = %+v", st)
	}
	if _, _, _, shed := e.Admission().Counters(); shed != 1 {
		t.Fatalf("controller counts %d sheds, want the ledger's 1", shed)
	}

	// Ceiling: a1 and b1 are live; two more fill MaxInflight and the next
	// is turned away as retryable.
	accepted("", testTask("c1", clk))
	accepted("", testTask("c2", clk))
	rejected("", testTask("c3", clk), admission.StatusRejectedRate)

	// Probability: w1's 10 s completion warms the fleet model, after which
	// a 100 ms deadline is hopeless and an hour is not.
	clk.Advance(10 * time.Second)
	if _, _, err := e.Complete("a1", "w1", "ok"); err != nil {
		t.Fatal(err)
	}
	hopeless := testTask("d1", clk)
	hopeless.Deadline = clk.Now().Add(100 * time.Millisecond)
	rejected("", hopeless, admission.StatusRejectedProbability)
	roomy := testTask("d2", clk)
	roomy.Deadline = clk.Now().Add(time.Hour)
	accepted("", roomy)

	// The raw Submit path skips the gates but not the ceiling backstop.
	if err := e.Submit(testTask("e1", clk)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit at the ceiling: err = %v, want ErrQueueFull", err)
	}

	// Without a plane SubmitFrom admits everything and Tick sheds nothing.
	bare := New(Config{Clock: clk, Shards: 1}, Hooks{})
	if bare.Admission() != nil {
		t.Fatal("engine without Config.Admission has a controller")
	}
	if d, err := bare.SubmitFrom("r", testTask("x", clk)); err != nil || d.Status != admission.StatusAdmitted {
		t.Fatalf("bare SubmitFrom = %+v, %v", d, err)
	}
}

// TestAdmissionReadsTheEnginesLedger scripts one of each lifecycle event
// and checks after every step that the gates' load signals are the
// engine's ledger — and that the ledger agrees with the store.
func TestAdmissionReadsTheEnginesLedger(t *testing.T) {
	e, clk, _ := newGated(admission.Config{ShedTarget: time.Second, ShedInterval: time.Second})
	check := func(step string) {
		t.Helper()
		in, un := e.Admission().Loads()
		if in != e.Ledger().InFlight() || un != e.Ledger().Unassigned() {
			t.Fatalf("%s: gates read %d/%d, ledger holds %d/%d",
				step, in, un, e.Ledger().InFlight(), e.Ledger().Unassigned())
		}
		u, a, _, _ := e.Tasks().Counts()
		if in != int64(u+a) || un != int64(u) {
			t.Fatalf("%s: gates read %d/%d, store holds %d live / %d unassigned", step, in, un, u+a, u)
		}
	}
	check("empty")
	mustAttach(t, e, "w1")
	for _, id := range []string{"t1", "t2", "t3"} {
		if _, err := e.SubmitFrom("r", testTask(id, clk)); err != nil {
			t.Fatal(err)
		}
		check("submit " + id)
	}
	e.Tick() // t1 → w1
	check("assign")
	if err := e.DetachWorker("w1"); err != nil {
		t.Fatal(err)
	}
	check("revoke")
	mustAttach(t, e, "w1")
	clk.Advance(time.Second)
	e.Tick() // rebinds one task; the shedder arms on what still waits
	check("reassign")
	held, _ := e.Workers().Get("w1")
	if _, _, err := e.Complete(held.CurrentTask(), "w1", "ok"); err != nil {
		t.Fatal(err)
	}
	check("complete")
	if err := e.DetachWorker("w1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	e.Tick() // past the interval with nobody to serve: sheds
	check("shed")
	if e.Stats().Shed == 0 {
		t.Fatal("script never shed")
	}
	clk.Advance(2 * time.Minute)
	e.Tick() // what is left expires on its deadline
	check("expire")
	if in, un := e.Admission().Loads(); in != 0 || un != 0 {
		t.Fatalf("drained engine reads %d/%d", in, un)
	}
}

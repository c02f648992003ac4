package event_test

import (
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/taskq"
)

// TestLedgerAttributesMisses drives a real engine's task store through every way
// a task can end and checks the ledger names the miss from the terminal
// event alone — and that the same records, replayed through journal.State,
// are attributed identically.
func TestLedgerAttributesMisses(t *testing.T) {
	const deadline = time.Minute
	type run struct {
		m   *engine.TaskStore
		clk *clock.Virtual
	}
	assign := func(r run, worker string) {
		if err := r.m.Assign("t", worker); err != nil {
			t.Fatal(err)
		}
	}
	revoke := func(r run, cause string) {
		if err := r.m.Unassign("t", cause, 0); err != nil {
			t.Fatal(err)
		}
	}
	complete := func(r run, after time.Duration) {
		r.clk.Advance(after)
		if _, err := r.m.Complete("t"); err != nil {
			t.Fatal(err)
		}
	}
	expire := func(r run) {
		r.clk.Advance(2 * deadline)
		if got := r.m.ExpireDue(); len(got) != 1 {
			t.Fatalf("expired %d records, want 1", len(got))
		}
	}
	cases := []struct {
		name  string
		drive func(run)
		want  event.LossKind // "" = met its deadline
	}{
		{"on time", func(r run) { assign(r, "w1"); complete(r, time.Second) }, ""},
		{"on time after a rescue", func(r run) {
			assign(r, "w1")
			revoke(r, taskq.CauseEq2)
			assign(r, "w2")
			complete(r, time.Second)
		}, ""},
		{"late, one attempt", func(r run) { assign(r, "w1"); complete(r, 2*deadline) }, event.LossAbandoned},
		{"late, two attempts", func(r run) {
			assign(r, "w1")
			revoke(r, taskq.CauseEq2)
			assign(r, "w2")
			complete(r, 2*deadline)
		}, event.LossRescueLate},
		{"expired, never assigned", expire, event.LossQueued},
		{"expired after a revocation", func(r run) {
			assign(r, "w1")
			revoke(r, taskq.CauseDetach)
			expire(r)
		}, event.LossRescueExpired},
		{"expired in a worker's hands", func(r run) { assign(r, "w1"); expire(r) }, event.LossRescueExpired},
		{"expired after an undeliverable binding", func(r run) {
			assign(r, "w1")
			revoke(r, taskq.CauseUndeliverable)
			expire(r)
		}, event.LossRescueExpired},
		{"shed", func(r run) {
			if err := r.m.Shed("t"); err != nil {
				t.Fatal(err)
			}
		}, event.LossQueued},
	}
	for _, c := range cases {
		clk := clock.NewVirtual(clock.Epoch)
		eng := engine.New(engine.Config{Clock: clk}, engine.Hooks{})
		m := eng.Tasks()
		var live event.Ledger
		replayed := journal.NewState()
		eng.Events().Tap(func(ev event.Event) {
			live.Observe(ev)
			rec, ok := journal.FromEvent(ev)
			if !ok {
				t.Fatalf("%s: %v event has no journal record", c.name, ev.Kind)
			}
			if err := replayed.Apply(rec); err != nil {
				t.Fatal(err)
			}
		})
		if err := m.Submit(taskq.Task{ID: "t", Deadline: clk.Now().Add(deadline)}); err != nil {
			t.Fatal(err)
		}
		c.drive(run{m, clk})

		for name, l := range map[string]*event.Ledger{"live": &live, "replayed": &replayed.Stats} {
			if l.InFlight() != 0 {
				t.Fatalf("%s (%s): task not terminal", c.name, name)
			}
			for _, k := range event.LossKinds {
				want := int64(0)
				if k == c.want {
					want = 1
				}
				if got := l.Missed(k); got != want {
					t.Errorf("%s (%s): Missed(%s) = %d, want %d", c.name, name, k, got, want)
				}
			}
		}
	}
	var l event.Ledger
	if l.Missed("no-such-kind") != 0 {
		t.Fatal("unknown kind counted")
	}
}

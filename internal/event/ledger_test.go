package event

import (
	"testing"
	"time"

	"react/internal/taskq"
)

// TestLedgerFold pins the one kind+cause → counter mapping every consumer
// of lifecycle counts shares.
func TestLedgerFold(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	held := taskq.Record{AssignedAt: t0}
	onTime := taskq.Record{Status: taskq.Completed, AssignedAt: t0, FinishedAt: t0.Add(time.Second),
		Task: taskq.Task{Deadline: t0.Add(time.Minute)}}
	late := onTime
	late.FinishedAt = t0.Add(time.Hour)

	var l Ledger
	steps := []struct {
		ev         Event
		want       Tally
		inFlight   int64
		unassigned int64
	}{
		{Event{Kind: KindSubmit}, Tally{Received: 1}, 1, 1},
		{Event{Kind: KindSubmit}, Tally{Received: 2}, 2, 2},
		{Event{Kind: KindAssign, Record: held}, Tally{Received: 2, Assigned: 1}, 2, 1},
		{Event{Kind: KindRevoke, Cause: taskq.CauseUndeliverable}, Tally{Received: 2}, 2, 2},
		{Event{Kind: KindAssign, Record: held}, Tally{Received: 2, Assigned: 1}, 2, 1},
		{Event{Kind: KindRevoke, Cause: taskq.CauseEq2}, Tally{Received: 2, Assigned: 1, Reassigned: 1}, 2, 2},
		{Event{Kind: KindAssign, Record: held}, Tally{Received: 2, Assigned: 2, Reassigned: 1}, 2, 1},
		{Event{Kind: KindRevoke}, Tally{Received: 2, Assigned: 2, Reassigned: 2}, 2, 2}, // parent-format replay: no cause
		{Event{Kind: KindAssign, Record: held}, Tally{Received: 2, Assigned: 3, Reassigned: 2}, 2, 1},
		{Event{Kind: KindComplete, Record: onTime}, Tally{Received: 2, Assigned: 3, Completed: 1, OnTime: 1, Reassigned: 2}, 1, 1},
		{Event{Kind: KindExpire, Cause: taskq.CauseShed}, Tally{Received: 2, Assigned: 3, Completed: 1, OnTime: 1, Expired: 1, Shed: 1, Reassigned: 2}, 0, 0},
		{Event{Kind: KindForget}, Tally{Received: 2, Assigned: 3, Completed: 1, OnTime: 1, Expired: 1, Shed: 1, Reassigned: 2}, 0, 0},
		{Event{Kind: KindBatch, Batch: &BatchStats{Elapsed: 3 * time.Millisecond}}, Tally{Received: 2, Assigned: 3, Completed: 1, OnTime: 1, Expired: 1, Shed: 1, Reassigned: 2}, 0, 0},
	}
	for i, s := range steps {
		l.Observe(s.ev)
		if got := l.Counts(); got != s.want {
			t.Fatalf("step %d (%v %q): counts %+v, want %+v", i, s.ev.Kind, s.ev.Cause, got, s.want)
		}
		if l.InFlight() != s.inFlight || l.Unassigned() != s.unassigned {
			t.Fatalf("step %d (%v %q): in flight %d, unassigned %d; want %d, %d",
				i, s.ev.Kind, s.ev.Cause, l.InFlight(), l.Unassigned(), s.inFlight, s.unassigned)
		}
	}
	if n, spent := l.Rounds(); n != 1 || spent != 3*time.Millisecond {
		t.Fatalf("rounds = %d spending %v, want the one batch's 1 and 3ms", n, spent)
	}
	if l.Revoked(taskq.CauseEq2) != 1 || l.Revoked(taskq.CauseUndeliverable) != 1 || l.Revoked(taskq.CauseDetach) != 0 || l.Revoked("") != 0 {
		t.Fatalf("per-cause revocations: eq2 %d, undeliverable %d, detach %d", l.Revoked(taskq.CauseEq2),
			l.Revoked(taskq.CauseUndeliverable), l.Revoked(taskq.CauseDetach))
	}

	// A recovered ledger continues from the replayed counts and the
	// restored pool: a late completion, then a task dying in a worker's
	// hands (the pool gauge stays put), then one dying in the pool.
	var r Ledger
	r.Seed(Tally{Received: 9, Assigned: 5, Completed: 3, OnTime: 2, Expired: 2, Shed: 1, Reassigned: 1}, 3)
	if r.InFlight() != 4 || r.Unassigned() != 3 {
		t.Fatalf("seeded gauges %d/%d, want 4/3", r.InFlight(), r.Unassigned())
	}
	r.Observe(Event{Kind: KindComplete, Record: late})
	r.Observe(Event{Kind: KindExpire, Cause: taskq.CauseDeadline, Record: held})
	r.Observe(Event{Kind: KindExpire, Cause: taskq.CauseDeadline})
	want := Tally{Received: 9, Assigned: 5, Completed: 4, OnTime: 2, Expired: 4, Shed: 1, Reassigned: 1}
	if got := r.Counts(); got != want || r.InFlight() != 1 || r.Unassigned() != 2 {
		t.Fatalf("after recovery traffic: %+v in flight %d unassigned %d, want %+v 1 2", got, r.InFlight(), r.Unassigned(), want)
	}
}

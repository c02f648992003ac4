package core

import (
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/journal"
	"react/internal/region"
	"react/internal/taskq"
)

// TestPersistenceRoundtrip drives a journaled server through a full task
// lifecycle, stops it (flush-before-shutdown), and recovers twice: once to
// check every invariant — completed tasks stay completed and graded,
// in-flight assignments return to the pool, counters and worker history
// survive, restored workers are offline until they reconnect — and once
// more to prove the recovery sweep itself was journaled (a second crash
// recovers the post-sweep state, not the pre-sweep one).
func TestPersistenceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewVirtual(epoch)
	task := func(id string) taskq.Task {
		return taskq.Task{ID: id, Deadline: clk.Now().Add(time.Minute), Reward: 1, Category: "ocr"}
	}

	store, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Clock: clk})
	sum, err := srv.EnablePersistence(store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tasks != 0 || sum.Workers != 0 {
		t.Fatalf("fresh dir recovered %+v", sum)
	}
	// No Start: the test drives the engine directly so every timing comes
	// from the virtual clock.
	if _, err := srv.RegisterWorker("w1", region.Point{Lat: 40, Lon: -74}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"t1", "t2", "t3", "t4"} {
		if err := srv.Submit(task(id)); err != nil {
			t.Fatal(err)
		}
	}
	// t1 runs to completion and is graded; t2 is mid-flight at "crash"
	// time; t3/t4 never left the pool.
	if err := srv.Tasks().Assign("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if _, err := srv.Complete("t1", "w1", "answer"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	if err := srv.Tasks().Assign("t2", "w1"); err != nil {
		t.Fatal(err)
	}
	srv.Stop() // flushes and closes the journal

	store2, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Options{Clock: clk})
	sum2, err := srv2.EnablePersistence(store2)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Tasks != 4 || sum2.Workers != 1 {
		t.Fatalf("recovered %+v, want 4 tasks 1 worker", sum2)
	}

	rec, ok := srv2.Tasks().Get("t1")
	if !ok || rec.Status != taskq.Completed || !rec.Graded || !rec.MetDeadline() {
		t.Fatalf("t1 after recovery: %+v", rec)
	}
	if err := srv2.Feedback("t1", true); err == nil {
		t.Fatal("double grading allowed after recovery")
	}
	rec, ok = srv2.Tasks().Get("t2")
	if !ok || rec.Status != taskq.Unassigned || rec.Attempts != 1 {
		t.Fatalf("t2 should be swept back to the pool with its attempt kept: %+v", rec)
	}
	for _, id := range []string{"t3", "t4"} {
		if rec, ok := srv2.Tasks().Get(id); !ok || rec.Status != taskq.Unassigned {
			t.Fatalf("%s after recovery: %+v", id, rec)
		}
	}
	stats := srv2.Stats()
	if stats.Received != 4 || stats.Assigned != 2 || stats.Completed != 1 ||
		stats.OnTime != 1 || stats.Reassigned != 1 {
		t.Fatalf("recovered stats: %+v", stats)
	}
	if stats.WorkersKnown != 1 || stats.WorkersOnline != 0 {
		t.Fatalf("restored worker should be known but offline: %+v", stats)
	}
	p, ok := srv2.Workers().Get("w1")
	if !ok {
		t.Fatal("worker profile lost")
	}
	if acc, ok := p.Accuracy("ocr"); !ok || acc != 1 {
		t.Fatalf("accuracy after recovery: %v %v", acc, ok)
	}
	if p.FitSamples() != 1 {
		t.Fatalf("execution-time history after recovery: %d samples, want 1", p.FitSamples())
	}
	if _, err := srv2.RegisterWorker("w1", region.Point{Lat: 40, Lon: -74}); err != nil {
		t.Fatalf("restored worker cannot reconnect: %v", err)
	}
	if _, err := srv2.RegisterWorker("w1", region.Point{Lat: 40, Lon: -74}); err == nil {
		t.Fatal("second live connection for a reconnected worker accepted")
	}
	srv2.Stop()

	// Second crash: the sweep that unassigned t2 must itself have been
	// journaled, so recovery converges instead of replaying a stale state.
	store3, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv3 := New(Options{Clock: clk})
	if _, err := srv3.EnablePersistence(store3); err != nil {
		t.Fatal(err)
	}
	defer srv3.Stop()
	rec, ok = srv3.Tasks().Get("t2")
	if !ok || rec.Status != taskq.Unassigned {
		t.Fatalf("t2 after second recovery: %+v", rec)
	}
	stats = srv3.Stats()
	if stats.Received != 4 || stats.Reassigned != 1 {
		t.Fatalf("stats after second recovery: %+v", stats)
	}
}

// TestPersistenceDeregisterSurvives pins that a deregistration is
// journaled: the departed worker must not resurrect on recovery.
func TestPersistenceDeregisterSurvives(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))

	store, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Clock: clk})
	if _, err := srv.EnablePersistence(store); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterWorker("w1", region.Point{Lat: 1, Lon: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterWorker("w2", region.Point{Lat: 3, Lon: 4}); err != nil {
		t.Fatal(err)
	}
	if err := srv.DeregisterWorker("w1"); err != nil {
		t.Fatal(err)
	}
	srv.Stop()

	store2, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Options{Clock: clk})
	sum, err := srv2.EnablePersistence(store2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	if sum.Workers != 1 {
		t.Fatalf("recovered %d workers, want 1", sum.Workers)
	}
	if _, ok := srv2.Workers().Get("w1"); ok {
		t.Fatal("deregistered worker resurrected by recovery")
	}
	if _, ok := srv2.Workers().Get("w2"); !ok {
		t.Fatal("registered worker lost")
	}
}

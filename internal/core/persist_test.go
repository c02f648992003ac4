package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/event"
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

// openJournaled opens (or recovers) dir into a fresh, not-started server on
// the virtual clock.
func openJournaled(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	store, err := journal.Open(journal.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(opts)
	if _, err := srv.EnablePersistence(store); err != nil {
		t.Fatal(err)
	}
	return srv
}

// workerState is what a worker profile has learned, as replay must
// reproduce it.
type workerState struct {
	loc      region.Point
	samples  int
	accuracy float64
	graded   bool
}

// workerStates reads every profile the server knows, keyed by id.
func workerStates(s *Server) map[string]workerState {
	out := map[string]workerState{}
	for _, p := range s.Workers().All() {
		acc, graded := p.Accuracy("ocr")
		out[p.ID()] = workerState{loc: p.Location(), samples: p.FitSamples(), accuracy: acc, graded: graded}
	}
	return out
}

// TestReplayEqualsLive drives a journaled server through every cause the
// ledger's fold distinguishes, then requires recovery to report the same
// lifecycle counters the live server did: replay and live run one fold
// (event.Ledger.Observe), so a restart changes only Reassigned, and only
// by the recovery sweep's own journaled revocations. The worker profiles
// recover the same way: workers attached, graded and deregistered through
// the engine as well as through the server come back exactly as the live
// registry held them (profile.Registry.Observe is the other fold), offline.
func TestReplayEqualsLive(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	opts := Options{Clock: clk}
	loc := region.Point{Lat: 40, Lon: -74}
	srv := openJournaled(t, dir, opts)
	eng := srv.Engine()

	submit := func(id string, ttl time.Duration) {
		t.Helper()
		if err := srv.Submit(taskq.Task{ID: id, Deadline: clk.Now().Add(ttl), Reward: 1, Category: "ocr"}); err != nil {
			t.Fatal(err)
		}
	}
	// round lets a batch period pass and runs one scheduling round, then
	// checks where it left the task.
	round := func(id, wantWorker string) {
		t.Helper()
		clk.Advance(5 * time.Second)
		eng.TryBatch()
		if rec, _ := srv.Tasks().Get(id); rec.Worker != wantWorker {
			t.Fatalf("after the round %s is held by %q (%v), want %q", id, rec.Worker, rec.Status, wantWorker)
		}
	}
	complete := func(id string, after time.Duration) {
		t.Helper()
		clk.Advance(after)
		if _, err := srv.Complete(id, "w1", "answer"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.RegisterWorker("w1", loc); err != nil {
		t.Fatal(err)
	}

	// Delivered assignments: two on-time completions and a late one — also
	// the three samples Eq. 2 needs before it acts on w1.
	submit("on-time-1", time.Minute)
	round("on-time-1", "w1")
	complete("on-time-1", 5*time.Second)
	submit("late", 10*time.Second)
	round("late", "w1")
	complete("late", 15*time.Second)
	submit("on-time-2", time.Minute)
	round("on-time-2", "w1")
	complete("on-time-2", 5*time.Second)

	// Grades through the server and through the engine; two workers that
	// come and go between rounds, each attached one way and deregistered
	// the other.
	if err := srv.Feedback("on-time-1", true); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feedback("late", false); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterWorker("passer", loc); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeregisterWorker("passer"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AttachWorker("visitor", loc); err != nil {
		t.Fatal(err)
	}
	if err := srv.DeregisterWorker("visitor"); err != nil {
		t.Fatal(err)
	}

	// Eq. 2 revoke, then the same task dies in the pool at its deadline.
	submit("doomed", 10*time.Minute)
	round("doomed", "w1")
	clk.Advance(9 * time.Minute)
	eng.TickMonitor()
	if got := eng.Ledger().Revoked(taskq.CauseEq2); got != 1 {
		t.Fatalf("Eq. 2 revocations = %d, want 1", got)
	}
	clk.Advance(2 * time.Minute)
	eng.TickExpiry()

	// Detach revoke; then an assignment the transport refuses (ghost is
	// attached on the engine but has no feed); then a shed.
	submit("bounced", 10*time.Minute)
	round("bounced", "w1")
	if err := srv.DetachWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AttachWorker("ghost", loc); err != nil {
		t.Fatal(err)
	}
	round("bounced", "")
	if got := eng.Ledger().Revoked(taskq.CauseUndeliverable); got != 1 {
		t.Fatalf("undeliverable revocations = %d, want 1", got)
	}
	if err := eng.DetachWorker("ghost"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tasks().Shed("bounced"); err != nil {
		t.Fatal(err)
	}

	// What the crash finds: one task in w1's hands, one in the pool.
	if _, err := srv.RegisterWorker("w1", loc); err != nil {
		t.Fatal(err)
	}
	submit("held", 10*time.Minute)
	round("held", "w1")
	submit("waiting", 10*time.Minute)

	live := srv.Stats()
	want := event.Tally{Received: 7, Assigned: 6, Completed: 3, OnTime: 2, Expired: 2, Shed: 1, Reassigned: 2}
	lifecycle := func(s Stats) event.Tally { return s.Tally }
	if lifecycle(live) != want {
		t.Fatalf("live stats %+v, want %+v", lifecycle(live), want)
	}
	liveWorkers := workerStates(srv)
	if w1 := liveWorkers["w1"]; len(liveWorkers) != 2 || w1.samples != 3 || !w1.graded || w1.accuracy != 0.5 {
		t.Fatalf("live workers %+v, want w1 (3 samples, graded 1 of 2) and ghost", liveWorkers)
	}
	if _, ok := liveWorkers["ghost"]; !ok {
		t.Fatalf("live workers %+v, want ghost among them", liveWorkers)
	}
	sameWorkers := func(step string, s *Server) {
		t.Helper()
		if got := workerStates(s); !reflect.DeepEqual(got, liveWorkers) {
			t.Fatalf("%s: workers %+v, want the live %+v", step, got, liveWorkers)
		}
		if n := s.Workers().CountConnected(); n != 0 {
			t.Fatalf("%s: %d restored workers online, want all offline", step, n)
		}
	}
	srv.Stop()

	// First recovery: everything equal, plus the sweep of "held".
	srv2 := openJournaled(t, dir, opts)
	want.Reassigned++
	if got := lifecycle(srv2.Stats()); got != want {
		t.Fatalf("recovered stats %+v, want live + one swept assignment %+v", got, want)
	}
	sameWorkers("first recovery", srv2)
	srv2.Stop()

	// Second recovery: the sweep was journaled, so it is not counted twice.
	srv3 := openJournaled(t, dir, opts)
	defer srv3.Stop()
	if got := lifecycle(srv3.Stats()); got != want {
		t.Fatalf("stats after the second recovery %+v, want %+v", got, want)
	}
	sameWorkers("second recovery", srv3)
}

// TestAdmissionLoadSurvivesRecovery pins that a recovered server's
// admission gauges describe the recovered population: seeded from the
// journal, drained (never below zero) as those tasks expire, and binding
// the MaxInflight ceiling with the gate's own typed verdict.
func TestAdmissionLoadSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	opts := Options{Clock: clk, Admission: &admission.Config{MaxInflight: 4}}
	task := func(id string) taskq.Task {
		return taskq.Task{ID: id, Deadline: clk.Now().Add(time.Minute), Reward: 1, Category: "ocr"}
	}
	srv := openJournaled(t, dir, opts)
	for _, id := range []string{"a", "b", "c"} {
		if err := srv.Submit(task(id)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()

	srv = openJournaled(t, dir, opts)
	defer srv.Stop()
	u, a, _, _ := srv.Tasks().Counts()
	if in, un := srv.Admission().Loads(); u != 3 || in != int64(u+a) || un != int64(u) {
		t.Fatalf("recovered loads %d/%d, store holds %d unassigned + %d assigned", in, un, u, a)
	}
	clk.Advance(2 * time.Minute)
	srv.Engine().TickExpiry()
	if in, un := srv.Admission().Loads(); in != 0 || un != 0 {
		t.Fatalf("loads after the recovered tasks expired: %d/%d, want 0/0", in, un)
	}
	for _, id := range []string{"d", "e", "f", "g"} {
		if err := srv.Submit(task(id)); err != nil {
			t.Fatalf("submit %s below the ceiling: %v", id, err)
		}
	}
	d, err := srv.SubmitFrom("", task("h"))
	var rej *admission.RejectionError
	if !errors.As(err, &rej) || d.Status != admission.StatusRejectedRate || d.RetryAfter <= 0 {
		t.Fatalf("fifth submit: decision %+v, err %v; want the admission ceiling's rejected_rate with a retry-after", d, err)
	}
}

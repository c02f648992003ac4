package journal

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/region"
	"react/internal/taskq"
)

// host is the least a live host adds to a resumed engine: the journal it
// closes after the engine stops, and a route table its Deliver hook
// checks, so a worker attached on the engine alone — with no route, like a
// worker with no connection — refuses delivery.
type host struct {
	*engine.Engine
	store  *Store
	routes map[string]bool
}

// openHost opens (or recovers) dir into a fresh, not-started engine on cfg.
// Every timing comes from the virtual clock: a test drives the engine
// directly, or starts it on a Defer it captures and fires by hand.
func openHost(t *testing.T, dir string, cfg engine.Config) (*host, Summary) {
	t.Helper()
	store, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := &host{store: store, routes: map[string]bool{}}
	h.Engine = engine.New(cfg, engine.Hooks{Deliver: func(rec taskq.Record) bool { return h.routes[rec.Worker] }})
	sum, err := Resume(store, h.Engine)
	if err != nil {
		t.Fatal(err)
	}
	return h, sum
}

// attach routes a worker, then attaches it.
func (h *host) attach(t *testing.T, id string, loc region.Point) {
	t.Helper()
	h.routes[id] = true
	if _, err := h.AttachWorker(id, loc); err != nil {
		t.Fatal(err)
	}
}

// detach unroutes a worker, then detaches it.
func (h *host) detach(t *testing.T, id string) {
	t.Helper()
	delete(h.routes, id)
	if err := h.DetachWorker(id); err != nil {
		t.Fatal(err)
	}
}

// deregister unroutes a worker, then deregisters it.
func (h *host) deregister(t *testing.T, id string) {
	t.Helper()
	delete(h.routes, id)
	if err := h.DeregisterWorker(id); err != nil {
		t.Fatal(err)
	}
}

// close stops the engine, then closes the journal (flush-before-shutdown).
func (h *host) close() {
	h.Stop()
	h.store.Close()
}

// TestPersistenceRoundtrip drives a journaled engine through a full task
// lifecycle, stops it (flush-before-shutdown), and recovers twice: once to
// check every invariant — completed tasks stay completed and graded,
// in-flight assignments return to the pool, counters and worker history
// survive, restored workers are offline until they reconnect — and once
// more to prove the recovery sweep itself was journaled (a second crash
// recovers the post-sweep state, not the pre-sweep one).
func TestPersistenceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	cfg := engine.Config{Clock: clk}
	task := func(id string) taskq.Task {
		return taskq.Task{ID: id, Deadline: clk.Now().Add(time.Minute), Reward: 1, Category: "ocr"}
	}
	loc := region.Point{Lat: 40, Lon: -74}

	h, sum := openHost(t, dir, cfg)
	if sum.Tasks != 0 || sum.Workers != 0 {
		t.Fatalf("fresh dir recovered %+v", sum)
	}
	h.attach(t, "w1", loc)
	for _, id := range []string{"t1", "t2", "t3", "t4"} {
		if err := h.Submit(task(id)); err != nil {
			t.Fatal(err)
		}
	}
	// t1 runs to completion and is graded; t2 is mid-flight at "crash"
	// time; t3/t4 never left the pool.
	if err := h.Tasks().Assign("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if _, err := h.Complete("t1", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	if err := h.Tasks().Assign("t2", "w1"); err != nil {
		t.Fatal(err)
	}
	h.close()

	h2, sum2 := openHost(t, dir, cfg)
	if sum2.Tasks != 4 || sum2.Workers != 1 {
		t.Fatalf("recovered %+v, want 4 tasks 1 worker", sum2)
	}
	rec, ok := h2.Tasks().Get("t1")
	if !ok || rec.Status != taskq.Completed || !rec.Graded || !rec.MetDeadline() {
		t.Fatalf("t1 after recovery: %+v", rec)
	}
	if err := h2.Feedback("t1", true); err == nil {
		t.Fatal("double grading allowed after recovery")
	}
	rec, ok = h2.Tasks().Get("t2")
	if !ok || rec.Status != taskq.Unassigned || rec.Attempts != 1 {
		t.Fatalf("t2 should be swept back to the pool with its attempt kept: %+v", rec)
	}
	for _, id := range []string{"t3", "t4"} {
		if rec, ok := h2.Tasks().Get(id); !ok || rec.Status != taskq.Unassigned {
			t.Fatalf("%s after recovery: %+v", id, rec)
		}
	}
	stats := h2.Stats()
	if stats.Received != 4 || stats.Assigned != 2 || stats.Completed != 1 ||
		stats.OnTime != 1 || stats.Reassigned != 1 {
		t.Fatalf("recovered stats: %+v", stats)
	}
	if known, online := h2.Workers().Size(), h2.Workers().CountConnected(); known != 1 || online != 0 {
		t.Fatalf("restored worker should be known but offline: %d known, %d online", known, online)
	}
	p, ok := h2.Workers().Get("w1")
	if !ok {
		t.Fatal("worker profile lost")
	}
	if acc, ok := p.Accuracy("ocr"); !ok || acc != 1 {
		t.Fatalf("accuracy after recovery: %v %v", acc, ok)
	}
	if p.FitSamples() != 1 {
		t.Fatalf("execution-time history after recovery: %d samples, want 1", p.FitSamples())
	}
	h2.attach(t, "w1", loc) // a restored worker reconnects under its id
	if !p.Available() {
		t.Fatal("restored worker still offline after reconnecting")
	}
	h2.close()

	// Second crash: the sweep that unassigned t2 must itself have been
	// journaled, so recovery converges instead of replaying a stale state.
	h3, _ := openHost(t, dir, cfg)
	defer h3.close()
	rec, ok = h3.Tasks().Get("t2")
	if !ok || rec.Status != taskq.Unassigned {
		t.Fatalf("t2 after second recovery: %+v", rec)
	}
	stats = h3.Stats()
	if stats.Received != 4 || stats.Reassigned != 1 {
		t.Fatalf("stats after second recovery: %+v", stats)
	}
}

// TestResumeTwiceRefused pins that a store's recovered state is consumed
// by the first Resume.
func TestResumeTwiceRefused(t *testing.T) {
	h, _ := openHost(t, t.TempDir(), engine.Config{})
	defer h.close()
	if _, err := Resume(h.store, engine.New(engine.Config{}, engine.Hooks{})); err == nil {
		t.Fatal("second Resume of one store accepted")
	}
}

// TestPersistenceDeregisterSurvives pins that a deregistration is
// journaled: the departed worker must not resurrect on recovery.
func TestPersistenceDeregisterSurvives(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.Config{Clock: clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))}

	h, _ := openHost(t, dir, cfg)
	h.attach(t, "w1", region.Point{Lat: 1, Lon: 2})
	h.attach(t, "w2", region.Point{Lat: 3, Lon: 4})
	h.deregister(t, "w1")
	h.close()

	h2, sum := openHost(t, dir, cfg)
	defer h2.close()
	if sum.Workers != 1 {
		t.Fatalf("recovered %d workers, want 1", sum.Workers)
	}
	if _, ok := h2.Workers().Get("w1"); ok {
		t.Fatal("deregistered worker resurrected by recovery")
	}
	if _, ok := h2.Workers().Get("w2"); !ok {
		t.Fatal("registered worker lost")
	}
}

// TestAttachInvalidLocationRefused pins that a new worker at an invalid
// location never reaches the journal: the attach errors, a compaction
// writes a snapshot without it, and the store reopens.
func TestAttachInvalidLocationRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.Config{Clock: clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))}

	h, _ := openHost(t, dir, cfg)
	h.attach(t, "w1", region.Point{Lat: 1, Lon: 2})
	if _, err := h.AttachWorker("w2", region.Point{Lat: 1, Lon: 255}); err == nil {
		t.Fatal("attach at Lon 255 accepted")
	}
	if _, ok := h.Workers().Get("w2"); ok {
		t.Fatal("refused worker registered anyway")
	}
	if err := h.store.Compact(); err != nil {
		t.Fatal(err)
	}
	h.close()

	h2, sum := openHost(t, dir, cfg)
	defer h2.close()
	if sum.Workers != 1 {
		t.Fatalf("recovered %d workers, want 1", sum.Workers)
	}
}

// workerState is what a worker profile has learned, as replay must
// reproduce it.
type workerState struct {
	loc      region.Point
	samples  int
	accuracy float64
	graded   bool
}

// workerStates reads every profile the engine knows, keyed by id.
func workerStates(e *engine.Engine) map[string]workerState {
	out := map[string]workerState{}
	for _, p := range e.Workers().All() {
		acc, graded := p.Accuracy("ocr")
		out[p.ID()] = workerState{loc: p.Location(), samples: p.FitSamples(), accuracy: acc, graded: graded}
	}
	return out
}

// TestReplayEqualsLive drives a journaled engine through every cause the
// ledger's fold distinguishes, then requires recovery to report the same
// lifecycle counters the live engine did: replay and live run one fold
// (event.Ledger.Observe), so a restart changes only Reassigned, and only
// by the recovery sweep's own journaled revocations. The worker profiles
// recover the same way: workers attached, graded and deregistered with
// and without a route come back exactly as the live registry held them
// (profile.Registry.Observe is the other fold), offline.
//
// The live engine is started on a captured Config.Defer, as a simulation
// host's is, and the test fires what it arms: its one poll (Tick, after
// the Eq. 2 sweep once a MonitorPeriod is due) and each round's apply.
func TestReplayEqualsLive(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	type armedCall struct {
		d  time.Duration
		fn func(time.Time)
	}
	var armed []armedCall
	cfg := engine.Config{Clock: clk, Defer: func(d time.Duration, fn func(time.Time)) {
		armed = append(armed, armedCall{d, fn})
	}}
	// fire runs the oldest call armed with delay d and reports whether
	// there was one.
	fire := func(d time.Duration) bool {
		for i, a := range armed {
			if a.d == d {
				armed = append(armed[:i:i], armed[i+1:]...)
				a.fn(clk.Now())
				return true
			}
		}
		return false
	}
	poll := func() {
		t.Helper()
		if !fire(200 * time.Millisecond) { // the default BatchPoll
			t.Fatal("no poll armed")
		}
	}
	land := func() { // every round's apply, and the re-checks they arm
		for fire(0) {
		}
	}
	loc := region.Point{Lat: 40, Lon: -74}
	h, _ := openHost(t, dir, cfg)
	h.Start()

	submit := func(id string, ttl time.Duration) {
		t.Helper()
		if err := h.Submit(taskq.Task{ID: id, Deadline: clk.Now().Add(ttl), Reward: 1, Category: "ocr"}); err != nil {
			t.Fatal(err)
		}
	}
	// round lets a batch period pass and runs one poll, whose round it
	// lands, then checks where it left the task. Its sweep finds nothing
	// held.
	round := func(id, wantWorker string) {
		t.Helper()
		clk.Advance(5 * time.Second)
		poll()
		land()
		if rec, _ := h.Tasks().Get(id); rec.Worker != wantWorker {
			t.Fatalf("after the round %s is held by %q (%v), want %q", id, rec.Worker, rec.Status, wantWorker)
		}
	}
	complete := func(id string, after time.Duration) {
		t.Helper()
		clk.Advance(after)
		if _, err := h.Complete(id, "w1"); err != nil {
			t.Fatal(err)
		}
	}
	h.attach(t, "w1", loc)

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

	// Two grades; two workers that come and go between rounds, each
	// attached one way (with a route, on the engine alone) and deregistered
	// the other.
	if err := h.Feedback("on-time-1", true); err != nil {
		t.Fatal(err)
	}
	if err := h.Feedback("late", false); err != nil {
		t.Fatal(err)
	}
	h.attach(t, "passer", loc)
	if err := h.DeregisterWorker("passer"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AttachWorker("visitor", loc); err != nil {
		t.Fatal(err)
	}
	h.deregister(t, "visitor")

	// Eq. 2 revoke, then the same task dies in the pool at its deadline:
	// the revoking poll's round offers doomed to w1 again, but its apply is
	// still armed when the deadline passes, and then finds doomed expired.
	submit("doomed", 10*time.Minute)
	round("doomed", "w1")
	clk.Advance(9 * time.Minute)
	poll()
	if got := h.Ledger().Revoked(taskq.CauseEq2); got != 1 {
		t.Fatalf("Eq. 2 revocations = %d, want 1", got)
	}
	clk.Advance(2 * time.Minute)
	poll()
	land()

	// Detach revoke; then an assignment the host refuses (ghost is
	// attached on the engine but has no route); then a shed.
	submit("bounced", 10*time.Minute)
	round("bounced", "w1")
	h.detach(t, "w1")
	if _, err := h.AttachWorker("ghost", loc); err != nil {
		t.Fatal(err)
	}
	round("bounced", "")
	if got := h.Ledger().Revoked(taskq.CauseUndeliverable); got != 1 {
		t.Fatalf("undeliverable revocations = %d, want 1", got)
	}
	if err := h.DetachWorker("ghost"); err != nil {
		t.Fatal(err)
	}
	if err := h.Tasks().Shed("bounced"); err != nil {
		t.Fatal(err)
	}

	// What the crash finds: one task in w1's hands, one in the pool.
	h.attach(t, "w1", loc)
	submit("held", 10*time.Minute)
	round("held", "w1")
	submit("waiting", 10*time.Minute)

	live := h.Stats()
	want := event.Tally{Received: 7, Assigned: 6, Completed: 3, OnTime: 2, Expired: 2, Shed: 1, Reassigned: 2}
	if live.Tally != want {
		t.Fatalf("live stats %+v, want %+v", live.Tally, want)
	}
	liveWorkers := workerStates(h.Engine)
	if w1 := liveWorkers["w1"]; len(liveWorkers) != 2 || w1.samples != 3 || !w1.graded || w1.accuracy != 0.5 {
		t.Fatalf("live workers %+v, want w1 (3 samples, graded 1 of 2) and ghost", liveWorkers)
	}
	if _, ok := liveWorkers["ghost"]; !ok {
		t.Fatalf("live workers %+v, want ghost among them", liveWorkers)
	}
	sameWorkers := func(step string, e *engine.Engine) {
		t.Helper()
		if got := workerStates(e); !reflect.DeepEqual(got, liveWorkers) {
			t.Fatalf("%s: workers %+v, want the live %+v", step, got, liveWorkers)
		}
		if n := e.Workers().CountConnected(); n != 0 {
			t.Fatalf("%s: %d restored workers online, want all offline", step, n)
		}
	}
	h.close()

	// First recovery: everything equal, plus the sweep of "held".
	h2, _ := openHost(t, dir, cfg)
	want.Reassigned++
	if got := h2.Stats().Tally; got != want {
		t.Fatalf("recovered stats %+v, want live + one swept assignment %+v", got, want)
	}
	sameWorkers("first recovery", h2.Engine)
	h2.close()

	// Second recovery: the sweep was journaled, so it is not counted twice.
	h3, _ := openHost(t, dir, cfg)
	defer h3.close()
	if got := h3.Stats().Tally; got != want {
		t.Fatalf("stats after the second recovery %+v, want %+v", got, want)
	}
	sameWorkers("second recovery", h3.Engine)
}

// TestAdmissionLoadSurvivesRecovery pins that a recovered engine's
// admission gauges describe the recovered population: seeded from the
// journal, drained (never below zero) as those tasks expire, and binding
// the MaxInflight ceiling with the gate's own typed verdict.
func TestAdmissionLoadSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	cfg := engine.Config{Clock: clk, Admission: &admission.Config{MaxInflight: 4}}
	task := func(id string) taskq.Task {
		return taskq.Task{ID: id, Deadline: clk.Now().Add(time.Minute), Reward: 1, Category: "ocr"}
	}
	h, _ := openHost(t, dir, cfg)
	for _, id := range []string{"a", "b", "c"} {
		if _, err := h.SubmitFrom("", task(id)); err != nil {
			t.Fatal(err)
		}
	}
	h.close()

	h, _ = openHost(t, dir, cfg)
	defer h.close()
	u, a, _, _ := h.Tasks().Counts()
	if in, un := h.Admission().Loads(); u != 3 || in != int64(u+a) || un != int64(u) {
		t.Fatalf("recovered loads %d/%d, store holds %d unassigned + %d assigned", in, un, u, a)
	}
	clk.Advance(2 * time.Minute)
	h.Tick()
	if in, un := h.Admission().Loads(); in != 0 || un != 0 {
		t.Fatalf("loads after the recovered tasks expired: %d/%d, want 0/0", in, un)
	}
	for _, id := range []string{"d", "e", "f", "g"} {
		if _, err := h.SubmitFrom("", task(id)); err != nil {
			t.Fatalf("submit %s below the ceiling: %v", id, err)
		}
	}
	d, err := h.SubmitFrom("", task("h"))
	var rej *admission.RejectionError
	if !errors.As(err, &rej) || d.Status != admission.StatusRejectedRate || d.RetryAfter <= 0 {
		t.Fatalf("fifth submit: decision %+v, err %v; want the admission ceiling's rejected_rate with a retry-after", d, err)
	}
}

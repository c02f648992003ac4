package profile

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/event"
	"react/internal/powerlaw"
	"react/internal/region"
	"react/internal/taskq"
)

var athens = region.Point{Lat: 37.98, Lon: 23.73}

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	p, err := r.Register("alice", athens)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != "alice" || p.Location() != athens {
		t.Fatalf("profile = %v at %v", p.ID(), p.Location())
	}
	if !p.Available() {
		t.Fatal("fresh worker should be available")
	}
	got, ok := r.Get("alice")
	if !ok || got != p {
		t.Fatal("Get returned a different profile")
	}
	if r.Size() != 1 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := NewRegistry()
	r.Register("alice", athens)
	if _, err := r.Register("alice", athens); !errors.Is(err, ErrDuplicateWorker) {
		t.Fatalf("dup err = %v", err)
	}
}

func TestDeregister(t *testing.T) {
	r := NewRegistry()
	r.Register("alice", athens)
	if err := r.Deregister("alice"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("alice"); ok {
		t.Fatal("worker still present after deregister")
	}
	if err := r.Deregister("alice"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("double deregister err = %v", err)
	}
}

// TestAvailabilityAndBusy: occupancy is Observe's fold. An assign marks the
// worker busy on its task, and the revoke, completion or expiry of that
// task frees it; the same event for a task the worker does not hold (a
// stale release) leaves the mark alone.
func TestAvailabilityAndBusy(t *testing.T) {
	r := NewRegistry()
	p, _ := r.Register("alice", athens)
	for _, free := range []event.Kind{event.KindRevoke, event.KindComplete, event.KindExpire} {
		r.Observe(event.Event{Kind: event.KindAssign, Task: "t1", Worker: "alice"})
		if p.Available() || p.CurrentTask() != "t1" {
			t.Fatalf("after assign: available %v, CurrentTask %q; want busy on t1", p.Available(), p.CurrentTask())
		}
		r.Observe(event.Event{Kind: free, Task: "t0", Worker: "alice"})
		if p.CurrentTask() != "t1" {
			t.Fatalf("%v of a task alice does not hold freed her", free)
		}
		r.Observe(event.Event{Kind: free, Task: "t1", Worker: "alice"})
		if !p.Available() || p.CurrentTask() != "" {
			t.Fatalf("after %v: available %v, CurrentTask %q; want idle", free, p.Available(), p.CurrentTask())
		}
	}
	p.SetAvailable(false)
	if p.Available() {
		t.Fatal("disconnected worker reported available")
	}
	if got := r.Available(); len(got) != 0 {
		t.Fatalf("registry Available = %d workers", len(got))
	}
}

func TestAvailableSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"carol", "alice", "bob"} {
		r.Register(id, athens)
	}
	got := r.Available()
	if len(got) != 3 || got[0].ID() != "alice" || got[1].ID() != "bob" || got[2].ID() != "carol" {
		ids := make([]string, len(got))
		for i, p := range got {
			ids[i] = p.ID()
		}
		t.Fatalf("order = %v", ids)
	}
	all := r.All()
	if len(all) != 3 || all[0].ID() != "alice" {
		t.Fatalf("All() wrong: %d entries", len(all))
	}
	// The order is kept through churn, not re-sorted per snapshot.
	r.Deregister("bob")
	r.Register("aaron", athens)
	r.Register("bob", athens)
	r.Register("dave", athens)
	r.Deregister("carol")
	var ids []string
	for _, p := range r.All() {
		ids = append(ids, p.ID())
	}
	if want := []string{"aaron", "alice", "bob", "dave"}; !slices.Equal(ids, want) {
		t.Fatalf("order after churn = %v, want %v", ids, want)
	}
}

func TestEq1AccuracyPerCategory(t *testing.T) {
	var p Profile
	if _, ok := p.Accuracy("traffic"); ok {
		t.Fatal("accuracy without history should report !ok")
	}
	p.RecordCompletion("traffic", 5, true)
	p.RecordCompletion("traffic", 7, true)
	p.RecordCompletion("traffic", 9, false)
	p.RecordCompletion("photo", 4, false)
	if acc, ok := p.Accuracy("traffic"); !ok || math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("traffic accuracy = %v, %v", acc, ok)
	}
	if acc, ok := p.Accuracy("photo"); !ok || acc != 0 {
		t.Fatalf("photo accuracy = %v, %v", acc, ok)
	}
	if acc, ok := p.OverallAccuracy(); !ok || acc != 0.5 {
		t.Fatalf("overall accuracy = %v, %v", acc, ok)
	}
	if p.Finished() != 4 {
		t.Fatalf("Finished = %d", p.Finished())
	}
}

func TestTraineePhase(t *testing.T) {
	var p Profile
	if !p.Trainee(3) {
		t.Fatal("fresh worker should be a trainee")
	}
	for i := 0; i < 3; i++ {
		p.RecordCompletion("traffic", float64(i+2), true)
	}
	if p.Trainee(3) {
		t.Fatal("worker with 3 completions still a trainee at z=3")
	}
	if p.Trainee(5) != true {
		t.Fatal("worker with 3 completions should be a trainee at z=5")
	}
}

// TestViewReadsWhatTheProfileReports pins a View to the profile's state
// at the moment it was taken, and keeps it there: a grade after the view
// changes the next view, never this one, and a view with no grade since
// the last allocates nothing.
func TestViewReadsWhatTheProfileReports(t *testing.T) {
	r := NewRegistry()
	p, _ := r.Register("w", athens)
	fresh := p.View(3)
	if _, ok := fresh.Accuracy("traffic"); ok || !fresh.Trainee(3) || fresh.HasModel {
		t.Fatalf("fresh view = %+v", fresh)
	}
	if _, ok := fresh.OverallAccuracy(); ok {
		t.Fatal("fresh view reports an overall accuracy")
	}
	for i, exec := range []float64{2, 3, 4} {
		p.RecordCompletion("traffic", exec, i > 0)
	}
	p.RecordFeedback("photo", true)
	v := p.View(3)
	for _, c := range []struct {
		cat  string
		acc  float64
		seen bool
	}{{"traffic", 2.0 / 3, true}, {"photo", 1, true}, {"ocr", 0, false}} {
		if got, ok := v.Accuracy(c.cat); got != c.acc || ok != c.seen {
			t.Errorf("%s: view accuracy %v/%v, want %v/%v", c.cat, got, ok, c.acc, c.seen)
		}
	}
	if got, ok := v.OverallAccuracy(); !ok || got != 0.75 {
		t.Errorf("overall: view %v/%v, want 0.75", got, ok)
	}
	m, ok := p.Model(3)
	if v.Model != m || v.HasModel != ok || v.Trainee(3) != p.Trainee(3) || v.Location != athens || v.ID != "w" {
		t.Errorf("view = %+v, profile model %+v/%v", v, m, ok)
	}
	if allocs := testing.AllocsPerRun(10, func() { p.View(3) }); allocs != 0 {
		t.Errorf("View with no new grade allocates %v objects", allocs)
	}
	p.RecordFeedback("traffic", false)
	if acc, _ := v.Accuracy("traffic"); acc != 2.0/3 {
		t.Errorf("grade after the view moved it: traffic = %v", acc)
	}
	if next := p.View(3); next.Finished != 5 {
		t.Errorf("next view missed the grade: %d graded", next.Finished)
	} else if acc, _ := next.Accuracy("traffic"); acc != 0.5 {
		t.Errorf("next view missed the grade: traffic = %v", acc)
	}
}

func TestModelRequiresHistory(t *testing.T) {
	var p Profile
	if _, ok := p.Model(3); ok {
		t.Fatal("model with no history")
	}
	p.RecordCompletion("traffic", 5, true)
	p.RecordCompletion("traffic", 8, true)
	if _, ok := p.Model(3); ok {
		t.Fatal("model with 2 samples at minHistory=3")
	}
	p.RecordCompletion("traffic", 12, false)
	m, ok := p.Model(3)
	if !ok {
		t.Fatal("model missing with 3 samples")
	}
	if m.Kmin != 5 || m.N != 3 {
		t.Fatalf("model = %+v", m)
	}
	// minHistory < 1 falls back to the default of 3.
	if _, ok := p.Model(0); !ok {
		t.Fatal("Model(0) should use DefaultMinHistory and succeed")
	}
}

func TestModelSkipsNonPositiveExecTimes(t *testing.T) {
	var p Profile
	p.RecordCompletion("traffic", 0, true)  // counted for accuracy only
	p.RecordCompletion("traffic", -3, true) // likewise
	p.RecordCompletion("traffic", 6, true)
	if p.Finished() != 3 {
		t.Fatalf("Finished = %d", p.Finished())
	}
	if _, ok := p.Model(3); ok {
		t.Fatal("model fitted from only 1 positive sample at minHistory=3")
	}
	if acc, _ := p.OverallAccuracy(); acc != 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestSetLocation(t *testing.T) {
	var p Profile
	loc := region.Point{Lat: 40.64, Lon: 22.94}
	p.SetLocation(loc)
	if p.Location() != loc {
		t.Fatalf("Location = %v", p.Location())
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	r := NewRegistry()
	p, _ := r.Register("w", athens)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.RecordCompletion("traffic", float64(i%20+1), i%2 == 0)
				p.Accuracy("traffic")
				p.Model(3)
				p.Trainee(3)
				v := p.View(3)
				v.Accuracy("traffic")
			}
		}(g)
	}
	wg.Wait()
	if p.Finished() != 1600 {
		t.Fatalf("Finished = %d", p.Finished())
	}
	if acc, ok := p.OverallAccuracy(); !ok || acc != 0.5 {
		t.Fatalf("accuracy = %v, %v", acc, ok)
	}
	if m, ok := p.Model(3); !ok || m.Kmin != 1 {
		t.Fatalf("model = %+v, %v", m, ok)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("g%d-w%d", g, i)
				if _, err := r.Register(id, athens); err != nil {
					t.Error(err)
					return
				}
				r.Available()
				if i%2 == 0 {
					r.Deregister(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Size() != 400 {
		t.Fatalf("Size = %d, want 400", r.Size())
	}
}

func TestTwoPhaseRecording(t *testing.T) {
	var p Profile
	// Execution samples arrive at completion time...
	p.RecordExecTime(5)
	p.RecordExecTime(8)
	p.RecordExecTime(12)
	p.RecordExecTime(-1) // ignored
	p.RecordExecTime(0)  // ignored
	if m, ok := p.Model(3); !ok || m.N != 3 || m.Kmin != 5 {
		t.Fatalf("model = %+v, %v", m, ok)
	}
	// ...while feedback lands later, possibly for fewer tasks.
	p.RecordFeedback("traffic", true)
	p.RecordFeedback("traffic", false)
	if acc, ok := p.Accuracy("traffic"); !ok || acc != 0.5 {
		t.Fatalf("accuracy = %v, %v", acc, ok)
	}
	if p.Finished() != 2 {
		t.Fatalf("Finished = %d", p.Finished())
	}
}

func TestTwoPhaseEquivalentToCombined(t *testing.T) {
	var a, b Profile
	a.RecordCompletion("photo", 7, true)
	b.RecordExecTime(7)
	b.RecordFeedback("photo", true)
	am, _ := a.Model(1)
	bm, _ := b.Model(1)
	if am != bm {
		t.Fatalf("models differ: %+v vs %+v", am, bm)
	}
	aa, _ := a.Accuracy("photo")
	ba, _ := b.Accuracy("photo")
	if aa != ba {
		t.Fatalf("accuracy differs: %v vs %v", aa, ba)
	}
}

// TestObserveFoldsCompletionsAndGrades pins the registry's spine fold: a
// completion is an execution-time sample for the answerer, a grade an Eq. 1
// verdict in the task's category, and every other kind — or an event for a
// worker the registry does not know — changes no history.
func TestObserveFoldsCompletionsAndGrades(t *testing.T) {
	r := NewRegistry()
	p, err := r.Register("alice", athens)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	done := taskq.Record{Task: taskq.Task{ID: "t1", Category: "traffic"}, Status: taskq.Completed,
		Worker: "alice", AssignedAt: t0, FinishedAt: t0.Add(8 * time.Second)}
	for _, ev := range []event.Event{
		{Kind: event.KindComplete, Task: "t1", Worker: "alice", Record: done},
		{Kind: event.KindFeedback, Task: "t1", Worker: "alice", Positive: true, Record: done},
		{Kind: event.KindFeedback, Task: "t1", Worker: "alice", Record: done},
		{Kind: event.KindAssign, Task: "t1", Worker: "alice", Record: done},
		{Kind: event.KindForget, Task: "t1", Worker: "alice", Record: done},
		{Kind: event.KindAttach, Worker: "alice", Loc: region.Point{Lat: 1, Lon: 2}},
		{Kind: event.KindComplete, Task: "t2", Worker: "bob", Record: done},
		{Kind: event.KindFeedback, Task: "t2", Worker: "bob", Positive: true, Record: done},
	} {
		r.Observe(ev)
	}
	if m, ok := p.Model(1); !ok || m.N != 1 || m.Kmin != 8 {
		t.Fatalf("model = %+v, %v; want one 8 s sample", m, ok)
	}
	if acc, ok := p.Accuracy("traffic"); !ok || acc != 0.5 || p.Finished() != 2 {
		t.Fatalf("accuracy = %v, %v over %d; want 0.5 over 2", acc, ok, p.Finished())
	}
	if p.Location() != athens || r.Size() != 1 {
		t.Fatalf("fold touched membership or location: %v, %d workers", p.Location(), r.Size())
	}
}

// TestObservePoolsFleetLaw: the fleet's pooled law is a plain
// powerlaw.Fitter fed every positive completion exec time in stream order,
// whoever answered: a worker the registry does not know counts toward it
// (its own history left with it), a zero exec time (a record never
// assigned) does not, and no other kind moves it.
func TestObservePoolsFleetLaw(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"alice", "bob"} {
		if _, err := r.Register(id, athens); err != nil {
			t.Fatal(err)
		}
	}
	if n, m := r.FleetModel(); n != 0 || m != (powerlaw.Model{}) {
		t.Fatalf("empty registry's fleet law = %d, %+v; want 0 and the zero model", n, m)
	}
	rng := rand.New(rand.NewSource(7))
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var want powerlaw.Fitter
	wantAlice, zeros := 0, 0
	for i := 0; i < 600; i++ {
		worker := []string{"alice", "bob", "stranger"}[rng.Intn(3)]
		rec := taskq.Record{Task: taskq.Task{ID: fmt.Sprintf("t%d", i), Category: "traffic"},
			Status: taskq.Completed, Worker: worker}
		if i%40 != 7 {
			rec.AssignedAt = t0
			rec.FinishedAt = t0.Add(time.Millisecond + time.Duration(rng.ExpFloat64()*float64(3*time.Second)))
		}
		for _, kind := range []event.Kind{event.KindAssign, event.KindComplete, event.KindFeedback, event.KindForget} {
			r.Observe(event.Event{Kind: kind, Task: rec.Task.ID, Worker: worker, Positive: true, Record: rec})
		}
		exec := rec.ExecTime().Seconds()
		if exec <= 0 {
			zeros++
			continue
		}
		if err := want.Add(exec); err != nil {
			t.Fatal(err)
		}
		if worker == "alice" {
			wantAlice++
		}
	}
	if zeros == 0 || r.Size() != 2 {
		t.Fatalf("stream had %d zero exec times over %d known workers; want some over 2", zeros, r.Size())
	}
	gotN, gotSum, gotMin := r.fleet.State()
	wantN, wantSum, wantMin := want.State()
	if gotN != wantN || gotSum != wantSum || gotMin != wantMin {
		t.Fatalf("fleet fitter (n, Σ ln k, min) = (%d, %v, %v), want (%d, %v, %v)",
			gotN, gotSum, gotMin, wantN, wantSum, wantMin)
	}
	wantModel, err := want.Model()
	if err != nil {
		t.Fatal(err)
	}
	if n, m := r.FleetModel(); n != wantN || m != wantModel {
		t.Fatalf("FleetModel = %d, %+v; want %d, %+v", n, m, wantN, wantModel)
	}
	if p, _ := r.Get("alice"); p.FitSamples() != wantAlice {
		t.Fatalf("alice's own fit holds %d samples, want %d", p.FitSamples(), wantAlice)
	}
}

// countConnectedByWalk is what CountConnected used to do: ask every profile.
func countConnectedByWalk(r *Registry) int {
	n := 0
	for _, p := range r.All() {
		if p.Connected() {
			n++
		}
	}
	return n
}

// TestCountConnectedTracksEveryFlip: the kept count equals a walk over the
// profiles after every way availability can change — register, repeated
// SetAvailable, snapshot restore (which starts workers offline),
// deregister, and a flip on a profile that has already left.
func TestCountConnectedTracksEveryFlip(t *testing.T) {
	r := NewRegistry()
	check := func(when string, want int) {
		t.Helper()
		if got, walk := r.CountConnected(), countConnectedByWalk(r); got != want || walk != want {
			t.Fatalf("%s: CountConnected = %d, walk = %d, want %d", when, got, walk, want)
		}
	}
	check("empty", 0)
	a, _ := r.Register("a", athens)
	b, _ := r.Register("b", athens)
	check("two registered", 2)
	r.Observe(event.Event{Kind: event.KindAssign, Task: "t1", Worker: "a"})
	check("busy is still connected", 2)
	a.SetAvailable(false)
	a.SetAvailable(false)
	check("detached twice", 1)
	a.SetAvailable(true)
	a.SetAvailable(true)
	check("reattached twice", 2)

	if n, err := r.ReadSnapshot(strings.NewReader(`{"id":"c","lat":1,"lon":1}` + "\n")); n != 1 || err != nil {
		t.Fatalf("restore: %d, %v", n, err)
	}
	check("restored worker starts offline", 2)
	c, _ := r.Get("c")
	c.SetAvailable(true)
	check("restored worker reconnected", 3)

	if err := r.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	check("connected worker deregistered", 2)
	b.SetAvailable(false)
	b.SetAvailable(true)
	check("flips on a departed profile", 2)
	c.SetAvailable(false)
	if err := r.Deregister("c"); err != nil {
		t.Fatal(err)
	}
	check("offline worker deregistered", 1)
}

// TestCountConnectedConcurrent flips availability from many goroutines
// while others register and deregister; the count must settle on the walk.
func TestCountConnectedConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-w%d", g, i%10)
				if p, err := r.Register(id, athens); err == nil {
					p.SetAvailable(i%3 != 0)
				} else if p, ok := r.Get(id); ok {
					p.SetAvailable(i%2 == 0)
					if i%7 == 0 {
						r.Deregister(id)
					}
				}
				r.CountConnected()
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.CountConnected(), countConnectedByWalk(r); got != want {
		t.Fatalf("CountConnected = %d, walk = %d", got, want)
	}
}

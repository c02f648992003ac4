package profile

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/event"
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

func TestAvailabilityAndBusy(t *testing.T) {
	r := NewRegistry()
	p, _ := r.Register("alice", athens)
	p.MarkBusy("t1")
	if p.Available() {
		t.Fatal("busy worker reported available")
	}
	if p.CurrentTask() != "t1" {
		t.Fatalf("CurrentTask = %q", p.CurrentTask())
	}
	p.MarkIdle()
	if !p.Available() {
		t.Fatal("idle worker not available")
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

func TestRewardRange(t *testing.T) {
	var p Profile
	if !p.AcceptsReward(0.01) {
		t.Fatal("default profile should accept any reward")
	}
	p.SetRewardRange(0.05, 0.50)
	if p.AcceptsReward(0.01) || p.AcceptsReward(0.60) {
		t.Fatal("out-of-range reward accepted")
	}
	if !p.AcceptsReward(0.05) || !p.AcceptsReward(0.50) || !p.AcceptsReward(0.25) {
		t.Fatal("in-range reward rejected")
	}
	p.SetRewardRange(0, 0) // disable again
	if !p.AcceptsReward(99) {
		t.Fatal("disabled range still filtering")
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
// worker the registry does not know — changes nothing.
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
	a.MarkBusy("t1")
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

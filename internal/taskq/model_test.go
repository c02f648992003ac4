package taskq_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	. "react/internal/taskq"
)

// refManager is the model the indexed engine.TaskStore is checked
// against: one map and a full scan for every question, the way the
// registry answered before it kept status indexes. Multi-record passes
// publish in the order the store documents: expiry by id, retention by
// (FinishedAt, id).
type refManager struct {
	clk    clock.Clock
	recs   map[string]*Record
	hw     int
	events []event.Event
}

func (m *refManager) emit(kind event.Kind, r *Record, at time.Time, worker, cause string, prob float64) {
	m.events = append(m.events, event.Event{Kind: kind, Task: r.Task.ID, Record: *r, At: at, Worker: worker, Cause: cause, Prob: prob})
}

func (m *refManager) scan(keep func(*Record) bool) []*Record {
	var out []*Record
	for _, r := range m.recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task.ID < out[j].Task.ID })
	return out
}

func (m *refManager) noteHW() {
	u := 0
	for _, r := range m.recs {
		if r.Status == Unassigned {
			u++
		}
	}
	m.hw = max(m.hw, u)
}

func (m *refManager) Restore(r Record) error {
	switch {
	case r.Task.ID == "":
		return ErrUnknownTask
	case r.Status < Unassigned || r.Status > Expired:
		return ErrBadState
	case m.recs[r.Task.ID] != nil:
		return ErrDuplicateTask
	}
	m.recs[r.Task.ID] = &r
	m.noteHW()
	return nil
}

func (m *refManager) Submit(t Task) error {
	now := m.clk.Now()
	if !t.Deadline.After(now) {
		return ErrPastDeadline
	}
	if m.recs[t.ID] != nil {
		return ErrDuplicateTask
	}
	t.Submitted = now
	r := &Record{Task: t}
	m.recs[t.ID] = r
	m.noteHW()
	m.emit(event.KindSubmit, r, now, "", CauseSubmit, 0)
	return nil
}

// in looks id up and checks its status.
func (m *refManager) in(id string, want Status) (*Record, error) {
	r := m.recs[id]
	if r == nil {
		return nil, ErrUnknownTask
	}
	if r.Status != want {
		return nil, ErrBadState
	}
	return r, nil
}

func (m *refManager) Assign(id, worker string) error {
	r, err := m.in(id, Unassigned)
	if err != nil {
		return err
	}
	r.Status, r.Worker, r.AssignedAt = Assigned, worker, m.clk.Now()
	r.Attempts++
	m.emit(event.KindAssign, r, r.AssignedAt, worker, CauseBatch, 0)
	return nil
}

func (m *refManager) Unassign(id, cause string, prob float64) error {
	r, err := m.in(id, Assigned)
	if err != nil {
		return err
	}
	worker := r.Worker
	r.Status, r.Worker, r.AssignedAt = Unassigned, "", time.Time{}
	m.noteHW()
	m.emit(event.KindRevoke, r, m.clk.Now(), worker, cause, prob)
	return nil
}

func (m *refManager) Complete(id, worker string) (Record, error) {
	r, err := m.in(id, Assigned)
	if err != nil {
		return Record{}, err
	}
	if worker != "" && r.Worker != worker {
		return Record{}, ErrBadState
	}
	r.Status, r.FinishedAt = Completed, m.clk.Now()
	m.emit(event.KindComplete, r, r.FinishedAt, r.Worker, CauseWorker, 0)
	return *r, nil
}

func (m *refManager) Shed(id string) error {
	r, err := m.in(id, Unassigned)
	if err != nil {
		return err
	}
	r.Status, r.FinishedAt = Expired, m.clk.Now()
	m.emit(event.KindExpire, r, r.FinishedAt, r.Worker, CauseShed, 0)
	return nil
}

func (m *refManager) expire(includeAssigned bool) []Record {
	now := m.clk.Now()
	due := m.scan(func(r *Record) bool {
		live := r.Status == Unassigned || includeAssigned && r.Status == Assigned
		return live && !r.Task.Deadline.After(now)
	})
	var out []Record
	for _, r := range due {
		r.Status, r.FinishedAt = Expired, now
		out = append(out, *r)
		m.emit(event.KindExpire, r, now, r.Worker, CauseDeadline, 0)
	}
	return out
}

func (m *refManager) ForgetTerminatedBefore(cutoff time.Time) int {
	now := m.clk.Now()
	victims := m.scan(func(r *Record) bool { return r.Status >= Completed && r.FinishedAt.Before(cutoff) })
	sort.SliceStable(victims, func(i, j int) bool { return victims[i].FinishedAt.Before(victims[j].FinishedAt) })
	for _, r := range victims {
		delete(m.recs, r.Task.ID)
		m.emit(event.KindForget, r, now, r.Worker, CauseRetention, 0)
	}
	return len(victims)
}

func (m *refManager) Unassigned() []Task {
	out := []Task{}
	for _, r := range m.scan(func(r *Record) bool { return r.Status == Unassigned }) {
		out = append(out, r.Task)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Submitted.Before(out[j].Submitted) })
	return out
}

func (m *refManager) AssignedTasks() []Record {
	out := []Record{}
	for _, r := range m.scan(func(r *Record) bool { return r.Status == Assigned }) {
		out = append(out, *r)
	}
	return out
}

func (m *refManager) Counts() (u, a, c, e int) {
	var n [4]int
	for _, r := range m.recs {
		n[r.Status]++
	}
	return n[Unassigned], n[Assigned], n[Completed], n[Expired]
}

// TestModelAgainstFullScan drives an engine's store and the full-scan
// model through the same seeded operation stream on one virtual clock and
// requires identical return values, snapshot orders, counts, high-water
// mark and spine event stream (read through a bus tap) after every step.
func TestModelAgainstFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModel(t, seed, 4000)
		})
	}
}

func runModel(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewVirtual(clock.Epoch)
	eng := engine.New(engine.Config{Clock: clk}, engine.Hooks{})
	m := eng.Tasks()
	ref := &refManager{clk: clk, recs: map[string]*Record{}}
	var got []event.Event
	eng.Events().Tap(func(ev event.Event) {
		ev.Seq = 0
		got = append(got, ev)
	})

	var ids []string // every id ever used: forgotten ones exercise ErrUnknownTask
	pick := func() string {
		if len(ids) == 0 || rng.Intn(50) == 0 {
			return "ghost"
		}
		// Recent ids are the live ones; old ones are terminal or forgotten.
		if n := len(ids); n > 40 && rng.Intn(4) > 0 {
			return ids[n-1-rng.Intn(40)]
		}
		return ids[rng.Intn(len(ids))]
	}
	fresh := func() string {
		if len(ids) > 0 && rng.Intn(25) == 0 {
			return ids[rng.Intn(len(ids))] // duplicate, unless already forgotten
		}
		id := fmt.Sprintf("t%05d", len(ids))
		ids = append(ids, id)
		return id
	}
	// sameErr: both succeed, or both fail with the same sentinel.
	sameErr := func(step int, op string, g, w error) {
		t.Helper()
		if (g == nil) != (w == nil) || (w != nil && !errors.Is(g, w)) {
			t.Fatalf("step %d %s: err = %v, model %v", step, op, g, w)
		}
	}
	same := func(step int, op string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d %s:\n got   %+v\n model %+v", step, op, g, w)
		}
	}

	for step := 0; step < ops; step++ {
		// Whole seconds, often zero: equal Submitted and FinishedAt instants
		// are the tie-breaks under test.
		clk.Advance(time.Duration(rng.Intn(3)) * time.Second)
		now := clk.Now()
		switch op := rng.Intn(20); {
		case op < 6:
			task := Task{ID: fresh(), Deadline: now.Add(time.Duration(rng.Intn(30)) * time.Second), Category: "c"}
			sameErr(step, "submit", m.Submit(task), ref.Submit(task))
		case op < 10:
			id, w := pick(), fmt.Sprintf("w%d", rng.Intn(5))
			sameErr(step, "assign", m.Assign(id, w), ref.Assign(id, w))
		case op < 12:
			id := pick()
			sameErr(step, "unassign", m.Unassign(id, CauseEq2, 0.25), ref.Unassign(id, CauseEq2, 0.25))
		case op < 15:
			// Half the completions name a holder, often the wrong one; the
			// engine refuses a wrong holder as ErrNotAssigned.
			id, by := pick(), ""
			if rng.Intn(2) == 0 {
				by = fmt.Sprintf("w%d", rng.Intn(5))
			}
			var g Record
			var gerr error
			if by == "" {
				g, gerr = m.Complete(id)
			} else if g, gerr = eng.Complete(id, by); errors.Is(gerr, engine.ErrNotAssigned) {
				gerr = ErrBadState
			}
			w, werr := ref.Complete(id, by)
			sameErr(step, "complete", gerr, werr)
			same(step, "complete", g, w)
		case op < 16:
			id := pick()
			sameErr(step, "shed", m.Shed(id), ref.Shed(id))
		case op < 17:
			same(step, "expire-unassigned", m.ExpireUnassigned(), ref.expire(false))
		case op < 18:
			same(step, "expire-due", m.ExpireDue(), ref.expire(true))
		case op < 19:
			cutoff := now.Add(-time.Duration(rng.Intn(12)) * time.Second)
			same(step, "forget", m.ForgetTerminatedBefore(cutoff), ref.ForgetTerminatedBefore(cutoff))
		default:
			// A recovered record in any status; terminal ones finished at
			// arbitrary earlier instants, out of order and often equal.
			rec := Record{
				Task:   Task{ID: fresh(), Deadline: now.Add(time.Duration(rng.Intn(20)) * time.Second), Submitted: now.Add(-time.Minute)},
				Status: Status(rng.Intn(5)), // 4 is out of range: refused
			}
			if rec.Status == Assigned || rec.Status == Completed {
				rec.Worker, rec.AssignedAt, rec.Attempts = "w0", now.Add(-30*time.Second), 1
			}
			if rec.Status >= Completed {
				rec.FinishedAt = now.Add(-time.Duration(rng.Intn(15)) * time.Second)
			}
			sameErr(step, "restore", m.Restore(rec), ref.Restore(rec))
		}

		if len(got) != len(ref.events) {
			t.Fatalf("step %d: %d events, model %d", step, len(got), len(ref.events))
		}
		for i := range got {
			same(step, fmt.Sprintf("event %d of %d", i, len(got)), got[i], ref.events[i])
		}
		got, ref.events = got[:0], ref.events[:0]
		same(step, "unassigned", m.Unassigned(), ref.Unassigned())
		same(step, "assigned", m.AssignedTasks(), ref.AssignedTasks())
		gu, ga, gc, ge := m.Counts()
		wu, wa, wc, we := ref.Counts()
		same(step, "counts", [4]int{gu, ga, gc, ge}, [4]int{wu, wa, wc, we})
		same(step, "high-water", m.ShardStats()[0].UnassignedHighWater, ref.hw)
		id := pick()
		g, ok := m.Get(id)
		if w := ref.recs[id]; ok != (w != nil) || ok && !reflect.DeepEqual(g, *w) {
			t.Fatalf("step %d get %q: got %+v %v, model %+v", step, id, g, ok, w)
		}
	}
	if u, a, c, e := m.Counts(); u+a+c+e == 0 || len(ids) < ops/4 {
		t.Fatalf("degenerate run: %d ids, counts %d/%d/%d/%d", len(ids), u, a, c, e)
	}
}

// TestRestoreTerminalOrder bulk-loads terminal records whose FinishedAt is
// out of order and partly equal, as a recovered snapshot (sorted by id, not
// by time) presents them: retention must still drop exactly the records
// before the cutoff, oldest first, ties by id.
func TestRestoreTerminalOrder(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	eng := engine.New(engine.Config{Clock: clk}, engine.Hooks{})
	m := eng.Tasks()
	finished := map[string]int{"a": 40, "b": 10, "c": 30, "d": 10, "e": 20, "f": 30, "g": 50}
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		status := Completed
		if id == "d" || id == "f" {
			status = Expired
		}
		rec := Record{Task: testTask(id, time.Minute), Status: status,
			FinishedAt: clock.Epoch.Add(time.Duration(finished[id]) * time.Second)}
		if err := m.Restore(rec); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Minute)
	var forgot []string
	eng.Events().Tap(func(ev event.Event) {
		if ev.Kind != event.KindForget {
			t.Errorf("unexpected event kind %v", ev.Kind)
		}
		forgot = append(forgot, ev.Task)
	})
	if n := m.ForgetTerminatedBefore(clock.Epoch.Add(30 * time.Second)); n != 3 {
		t.Fatalf("removed %d, want 3 (cutoff is exclusive)", n)
	}
	if n := m.ForgetTerminatedBefore(clock.Epoch.Add(41 * time.Second)); n != 3 {
		t.Fatalf("second pass removed %d, want 3", n)
	}
	// Oldest first, ties by id, within each pass.
	if want := []string{"b", "d", "e", "c", "f", "a"}; !reflect.DeepEqual(forgot, want) {
		t.Fatalf("forget order = %v, want %v", forgot, want)
	}
	if _, _, c, e := m.Counts(); c != 1 || e != 0 {
		t.Fatalf("left completed=%d expired=%d, want 1/0", c, e)
	}
	if _, ok := m.Get("g"); !ok {
		t.Fatal("record past the cutoff was dropped")
	}
}

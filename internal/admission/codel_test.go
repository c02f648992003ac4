package admission

import (
	"fmt"
	"math"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/taskq"
)

// fakePool is an in-memory Pool: tasks stay in submission order, Shed
// removes by id and logs the victim sequence.
type fakePool struct {
	tasks []taskq.Task
	shed  []string
	fail  map[string]bool // ids whose Shed call should error
}

func (p *fakePool) Unassigned() []taskq.Task {
	out := make([]taskq.Task, len(p.tasks))
	copy(out, p.tasks)
	return out
}

func (p *fakePool) Shed(id string) error {
	if p.fail[id] {
		return fmt.Errorf("fake: %s raced away", id)
	}
	for i, t := range p.tasks {
		if t.ID == id {
			p.tasks = append(p.tasks[:i], p.tasks[i+1:]...)
			p.shed = append(p.shed, id)
			return nil
		}
	}
	return taskq.ErrUnknownTask
}

func (p *fakePool) add(id string, submitted time.Time, deadline time.Time) {
	p.tasks = append(p.tasks, taskq.Task{ID: id, Submitted: submitted, Deadline: deadline})
}

func TestVictimIndex(t *testing.T) {
	mk := func(id string, ttd time.Duration) taskq.Task {
		return taskq.Task{ID: id, Deadline: t0.Add(ttd)}
	}
	cases := []struct {
		name    string
		waiting []taskq.Task
		want    int
	}{
		{"single", []taskq.Task{mk("a", time.Second)}, 0},
		{"earliest deadline wins", []taskq.Task{mk("a", 3*time.Second), mk("b", time.Second), mk("c", 2*time.Second)}, 1},
		{"tie broken by smaller id", []taskq.Task{mk("b", time.Second), mk("a", time.Second)}, 1},
		{"tie keeps first when already smallest", []taskq.Task{mk("a", time.Second), mk("b", time.Second)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := victimIndex(tc.waiting); got != tc.want {
				t.Fatalf("victimIndex = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestShedStateMachine(t *testing.T) {
	const (
		target   = 5 * time.Second
		interval = 500 * time.Millisecond
	)
	clk := clock.NewVirtual(t0)
	c := newCtl(Config{ShedTarget: target, ShedInterval: interval}, clk, 0)
	pool := &fakePool{}

	// Empty pool: nothing to do.
	if got := c.TickShed(pool); got != 0 {
		t.Fatalf("empty pool shed %d", got)
	}

	// Oldest sojourn below target: not even armed.
	pool.add("t1", clk.Now(), clk.Now().Add(time.Hour))
	clk.Advance(target - time.Millisecond)
	if got := c.TickShed(pool); got != 0 {
		t.Fatalf("below target shed %d", got)
	}
	if !c.aboveSince.IsZero() {
		t.Fatal("armed below target")
	}

	// First tick above target arms the interval without shedding — a burst
	// that drains within one interval must cost nothing.
	clk.Advance(2 * time.Millisecond)
	if got := c.TickShed(pool); got != 0 {
		t.Fatalf("arming tick shed %d", got)
	}
	if c.aboveSince.IsZero() {
		t.Fatal("not armed above target")
	}

	// Still above target when the interval elapses: one victim.
	clk.Advance(interval)
	if got := c.TickShed(pool); got != 1 {
		t.Fatalf("first drop shed %d, want 1", got)
	}
	if len(pool.shed) != 1 || pool.shed[0] != "t1" {
		t.Fatalf("shed %v, want [t1]", pool.shed)
	}

	// Pool now empty: the episode resets (dropCount back to 0).
	if got := c.TickShed(pool); got != 0 {
		t.Fatalf("post-drain tick shed %d", got)
	}
	if c.dropCount != 0 || !c.aboveSince.IsZero() {
		t.Fatalf("episode not reset: dropCount=%d aboveSince=%v", c.dropCount, c.aboveSince)
	}
}

func TestShedSqrtCadence(t *testing.T) {
	// With the pool pinned above target, successive drops come at
	// interval/sqrt(1), /sqrt(2), /sqrt(3)... — CoDel's accelerating
	// schedule. Tick on a fine cadence and log virtual drop times.
	const (
		target   = time.Second
		interval = 900 * time.Millisecond
		dt       = 10 * time.Millisecond
	)
	clk := clock.NewVirtual(t0)
	c := newCtl(Config{ShedTarget: target, ShedInterval: interval}, clk, 0)
	pool := &fakePool{}
	for i := 0; i < 8; i++ {
		pool.add(fmt.Sprintf("t%d", i), clk.Now(), clk.Now().Add(time.Duration(i+1)*time.Hour))
	}

	var drops []time.Duration // virtual offsets of each shed
	for elapsed := time.Duration(0); elapsed < 5*time.Second && len(pool.tasks) > 0; elapsed += dt {
		clk.Advance(dt)
		if n := c.TickShed(pool); n > 0 {
			for i := 0; i < n; i++ {
				drops = append(drops, clk.Now().Sub(t0))
			}
		}
	}
	if len(drops) < 4 {
		t.Fatalf("only %d drops in 5s, want >= 4", len(drops))
	}
	// First drop: one interval after arming (armed at first tick past
	// target = 1.01s, so ~1.91s).
	if drops[0] > 2*time.Second {
		t.Fatalf("first drop at %v, want ~1.91s", drops[0])
	}
	// After drop k the next is interval/sqrt(k) later, so gaps shrink as
	// 900ms, 636ms, 520ms... within one tick of quantization.
	for k := 1; k < 4; k++ {
		gap := drops[k] - drops[k-1]
		want := time.Duration(float64(interval) / math.Sqrt(float64(k)))
		diff := gap - want
		if diff < 0 {
			diff = -diff
		}
		if diff > dt {
			t.Fatalf("gap %d = %v, want ~interval/sqrt(%d) = %v", k, gap, k, want)
		}
		if k > 1 && gap > drops[k-1]-drops[k-2] {
			t.Fatalf("gaps not accelerating: %v after %v", gap, drops[k-1]-drops[k-2])
		}
	}
	// Victims must leave earliest-deadline-first.
	for i := 1; i < len(pool.shed); i++ {
		if pool.shed[i-1] > pool.shed[i] {
			t.Fatalf("victims out of deadline order: %v", pool.shed)
		}
	}
}

func TestShedDisabled(t *testing.T) {
	clk := clock.NewVirtual(t0)
	c := newCtl(Config{ShedTarget: -1}, clk, 0)
	pool := &fakePool{}
	pool.add("t1", clk.Now(), clk.Now().Add(time.Hour))
	clk.Advance(time.Hour)
	if got := c.TickShed(pool); got != 0 {
		t.Fatalf("disabled shedder shed %d", got)
	}
}

func TestShedFailedVictimNotCounted(t *testing.T) {
	// A victim that races away (Shed errors) is skipped without counting,
	// and the pass moves on to the next victim on the same schedule.
	clk := clock.NewVirtual(t0)
	c := newCtl(Config{ShedTarget: time.Second, ShedInterval: 100 * time.Millisecond}, clk, 0)
	pool := &fakePool{fail: map[string]bool{"t0": true}}
	pool.add("t0", clk.Now(), clk.Now().Add(time.Minute))
	pool.add("t1", clk.Now(), clk.Now().Add(2*time.Minute))

	clk.Advance(1100 * time.Millisecond)
	c.TickShed(pool) // arms with dropNext one interval out
	// Far enough past dropNext that the pass covers both scheduled drops:
	// the earliest-deadline victim (t0) errors and is not counted; t1 is
	// shed on the next slot.
	clk.Advance(400 * time.Millisecond)
	if got := c.TickShed(pool); got != 1 {
		t.Fatalf("shed %d, want 1 (failed victim uncounted)", got)
	}
	if len(pool.shed) != 1 || pool.shed[0] != "t1" {
		t.Fatalf("shed %v, want [t1]", pool.shed)
	}
}

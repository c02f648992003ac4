package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/crowd"
)

func TestPoissonMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Poisson{Rate: 9.375}
	var total time.Duration
	const n = 50000
	for i := 0; i < n; i++ {
		total += p.Next(rng)
	}
	gotRate := float64(n) / total.Seconds()
	if math.Abs(gotRate-9.375)/9.375 > 0.03 {
		t.Fatalf("empirical rate = %v, want ≈9.375", gotRate)
	}
}

func TestPoissonZeroRateStalls(t *testing.T) {
	if got := (Poisson{}).Next(rand.New(rand.NewSource(1))); got < time.Minute {
		t.Fatalf("zero-rate gap = %v", got)
	}
}

func TestConstantSpacing(t *testing.T) {
	c := Constant{Rate: 12.5}
	want := 80 * time.Millisecond
	for i := 0; i < 5; i++ {
		if got := c.Next(nil); got != want {
			t.Fatalf("gap = %v, want %v", got, want)
		}
	}
	if got := (Constant{}).Next(nil); got < time.Minute {
		t.Fatalf("zero-rate gap = %v", got)
	}
}

func TestGeneratorDefaults(t *testing.T) {
	g := Generator{}.Normalize()
	if g.Prefix != "task" || g.DeadlineMin != crowd.DeadlineMin ||
		g.DeadlineMax != crowd.DeadlineMax || g.RewardMax != 0.10 ||
		len(g.Categories) != len(DefaultCategories) {
		t.Fatalf("defaults = %+v", g)
	}
	if !g.Area.Valid() {
		t.Fatal("default area invalid")
	}
}

func TestMakeTaskFields(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Generator{Prefix: "exp"}
	now := clock.Epoch
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		task := g.Make(i, now, rng)
		if !strings.HasPrefix(task.ID, "exp-") {
			t.Fatalf("id = %q", task.ID)
		}
		if seen[task.ID] {
			t.Fatalf("duplicate id %q", task.ID)
		}
		seen[task.ID] = true
		d := task.Deadline.Sub(now)
		if d < crowd.DeadlineMin || d > crowd.DeadlineMax {
			t.Fatalf("deadline offset %v outside 60-120s", d)
		}
		if task.Reward < 0.01 || task.Reward > 0.10 {
			t.Fatalf("reward %v outside band", task.Reward)
		}
		if task.Category == "" || task.Description == "" {
			t.Fatalf("task missing category/description: %+v", task)
		}
		if !g.Normalize().Area.Contains(task.Location) {
			t.Fatalf("location %v outside area", task.Location)
		}
	}
}

func TestMakeCoversAllCategories(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Generator{}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[g.Make(i, clock.Epoch, rng).Category]++
	}
	for _, c := range DefaultCategories {
		if counts[c] < 800 { // ≈1000 expected each
			t.Fatalf("category %q drawn %d times: %v", c, counts[c], counts)
		}
	}
}

func TestCustomDescriptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Generator{
		Categories:   []string{"traffic"},
		Descriptions: map[string]string{"traffic": "Is road A highly congested?"},
	}
	task := g.Make(0, clock.Epoch, rng)
	if task.Description != "Is road A highly congested?" {
		t.Fatalf("description = %q", task.Description)
	}
}

func TestStreamOrderingAndRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStream(Generator{}, Constant{Rate: 10}, clock.Epoch, rng)
	prev := clock.Epoch
	for i := 0; i < 100; i++ {
		at := s.Peek()
		if !at.After(prev) {
			t.Fatalf("arrival %d at %v not after %v", i, at, prev)
		}
		task := s.Take()
		if !task.Deadline.After(at) {
			t.Fatalf("deadline not after arrival")
		}
		prev = at
	}
	// Constant 10/s ⇒ 100 tasks span 10s ending at Epoch+10s.
	if want := clock.Epoch.Add(10 * time.Second); !prev.Equal(want) {
		t.Fatalf("last arrival %v, want %v", prev, want)
	}
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	a := NewStream(Generator{}, Poisson{Rate: 5}, clock.Epoch, rand.New(rand.NewSource(6)))
	b := NewStream(Generator{}, Poisson{Rate: 5}, clock.Epoch, rand.New(rand.NewSource(6)))
	for i := 0; i < 50; i++ {
		ta, tb := a.Take(), b.Take()
		if ta.ID != tb.ID || !ta.Deadline.Equal(tb.Deadline) || ta.Reward != tb.Reward {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ta, tb)
		}
	}
}

func TestGeneratorDeadlineMaxBelowMin(t *testing.T) {
	g := Generator{DeadlineMin: 5 * time.Minute, DeadlineMax: time.Minute}.Normalize()
	if g.DeadlineMax < g.DeadlineMin {
		t.Fatalf("normalize left inverted band [%v,%v]", g.DeadlineMin, g.DeadlineMax)
	}
	task := g.Make(0, clock.Epoch, rand.New(rand.NewSource(7)))
	if d := task.Deadline.Sub(clock.Epoch); d < g.DeadlineMin {
		t.Fatalf("deadline offset %v below min", d)
	}
}

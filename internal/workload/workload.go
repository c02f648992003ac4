// Package workload generates the task streams of §V.C/D: tasks arrive at a
// configured rate (1.5–12.5 tasks/s in the scalability sweep, 9.375 tasks/s
// in the main experiment — deliberately above the AMT arrival rate the
// paper cites), each with a location inside the region, a 60–120 s soft
// deadline derived from the case study, a small monetary reward, and a
// category for the quality weight function.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"react/internal/crowd"
	"react/internal/region"
	"react/internal/taskq"
)

// Arrival produces interarrival gaps for a task stream.
type Arrival interface {
	// Next returns the gap until the next task arrives.
	Next(rng *rand.Rand) time.Duration
}

// Poisson is a memoryless arrival process with the given mean rate in
// tasks per second — the natural model for independent requesters.
type Poisson struct {
	Rate float64
}

// Next draws an exponential interarrival time.
func (p Poisson) Next(rng *rand.Rand) time.Duration {
	if p.Rate <= 0 {
		return time.Hour // effectively stalls the stream
	}
	return time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
}

// Constant spaces arrivals exactly 1/Rate apart — the paper's fixed-rate
// formulation ("receives tasks in a rate of 9.375 tasks/second").
type Constant struct {
	Rate float64
}

// Next returns the fixed gap.
func (c Constant) Next(*rand.Rand) time.Duration {
	if c.Rate <= 0 {
		return time.Hour
	}
	return time.Duration(float64(time.Second) / c.Rate)
}

// DefaultCategories are the location-based task types the paper's intro
// motivates: traffic checks, price checks, point-of-interest surveys,
// photo/event reports.
var DefaultCategories = []string{"traffic", "price-check", "poi-survey", "photo"}

// Generator stamps out tasks. Zero fields are filled by Normalize with the
// paper's experimental settings.
type Generator struct {
	Prefix       string            // task id prefix (default "task")
	Area         region.Rect       // tasks land uniformly here
	DeadlineMin  time.Duration     // soft deadline band (default 60 s)
	DeadlineMax  time.Duration     // (default 120 s)
	RewardMin    float64           // monetary reward band (default 0.01)
	RewardMax    float64           // (default 0.10 — 90 % of AMT HITs pay below this)
	Categories   []string          // drawn uniformly (default DefaultCategories)
	Descriptions map[string]string // optional per-category description template
}

// Normalize fills defaults.
func (g Generator) Normalize() Generator {
	if g.Prefix == "" {
		g.Prefix = "task"
	}
	if !g.Area.Valid() {
		g.Area = region.Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.2, MaxLon: 24.0}
	}
	if g.DeadlineMin <= 0 {
		g.DeadlineMin = crowd.DeadlineMin
	}
	if g.DeadlineMax < g.DeadlineMin {
		g.DeadlineMax = crowd.DeadlineMax
		if g.DeadlineMax < g.DeadlineMin {
			g.DeadlineMax = g.DeadlineMin
		}
	}
	if g.RewardMax <= 0 {
		g.RewardMin, g.RewardMax = 0.01, 0.10
	}
	if len(g.Categories) == 0 {
		g.Categories = DefaultCategories
	}
	return g
}

// Make builds task number seq arriving at now. Callers must use a single
// RNG stream per generator for reproducible workloads.
func (g Generator) Make(seq int, now time.Time, rng *rand.Rand) taskq.Task {
	g = g.Normalize()
	deadline := g.DeadlineMin
	if span := g.DeadlineMax - g.DeadlineMin; span > 0 {
		deadline += time.Duration(rng.Int63n(int64(span) + 1))
	}
	category := g.Categories[rng.Intn(len(g.Categories))]
	desc := g.Descriptions[category]
	if desc == "" {
		desc = fmt.Sprintf("%s request", category)
	}
	return taskq.Task{
		ID:          fmt.Sprintf("%s-%06d", g.Prefix, seq),
		Location:    g.Area.RandomPoint(rng),
		Deadline:    now.Add(deadline),
		Reward:      g.RewardMin + rng.Float64()*(g.RewardMax-g.RewardMin),
		Category:    category,
		Description: desc,
	}
}

// Stream couples a generator with an arrival process and yields tasks in
// submission order, tracking virtual time internally.
type Stream struct {
	Gen     Generator
	Arrival Arrival
	rng     *rand.Rand
	seq     int
	next    time.Time
}

// NewStream starts a stream whose first task arrives one interarrival gap
// after start.
func NewStream(gen Generator, arrival Arrival, start time.Time, rng *rand.Rand) *Stream {
	s := &Stream{Gen: gen.Normalize(), Arrival: arrival, rng: rng}
	s.next = start.Add(arrival.Next(rng))
	return s
}

// Peek reports when the next task arrives.
func (s *Stream) Peek() time.Time { return s.next }

// Take returns the next task, stamped at its arrival instant, and advances
// the stream.
func (s *Stream) Take() taskq.Task {
	t := s.Gen.Make(s.seq, s.next, s.rng)
	s.seq++
	s.next = s.next.Add(s.Arrival.Next(s.rng))
	return t
}

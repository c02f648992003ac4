package main

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"react/internal/clock"
	"react/internal/crowd"
	"react/internal/wire"
	taskgen "react/internal/workload"
)

// Everything the server receives is generated here from --seed: the task
// stream, the arrival schedule, the crowd's behaviours and locations, and
// each worker's exec-time draws. Each stream has its own generator so
// adding a draw to one never reorders another.
const (
	streamTasks    = 0x7a5c
	streamArrivals = 0xa771
	streamCrowd    = 0xc20d
	streamPlaces   = 0x10c
	streamExec     = 0xe8ec
	streamGrades   = 0x96ad
)

// subSeed derives an independent stream seed (splitmix64 finalizer).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// taskStream yields the seeded task sequence. Closed-loop workloads draw
// from it on demand; open-loop ones pre-draw their whole schedule.
type taskStream struct {
	wl     workload
	gen    taskgen.Generator
	rng    *rand.Rand
	prefix string
	n      int
}

func newTaskStream(wl workload, seed int64) *taskStream {
	return &taskStream{
		wl:     wl,
		gen:    taskgen.Generator{}.Normalize(),
		rng:    rand.New(rand.NewSource(subSeed(seed, streamTasks))),
		prefix: fmt.Sprintf("%s%d", wl.Name[:1], seed),
	}
}

// taskID is the id of the i-th task; taskIndex inverts it.
func (s *taskStream) taskID(i int) string { return s.prefix + "-" + strconv.Itoa(i) }

func taskIndex(id string) (int, bool) {
	cut := strings.LastIndexByte(id, '-')
	if cut < 0 {
		return 0, false
	}
	i, err := strconv.Atoi(id[cut+1:])
	return i, err == nil && i >= 0
}

func (s *taskStream) next() wire.TaskPayload {
	// The generator draws a 60–120 s deadline against a reference instant;
	// only the relative deadline travels, compressed.
	t := s.gen.Make(s.n, clock.Epoch, s.rng)
	deadline := t.Deadline.Sub(clock.Epoch) / compress
	if s.wl.FixedDeadline > 0 {
		deadline = s.wl.FixedDeadline
	}
	if s.wl.TightEvery > 0 && (s.n+1)%s.wl.TightEvery == 0 {
		deadline = time.Duration(float64(deadline) * s.wl.TightFactor)
	}
	p := wire.TaskPayload{
		ID:          s.taskID(s.n),
		Lat:         t.Location.Lat,
		Lon:         t.Location.Lon,
		DeadlineMS:  deadline.Milliseconds(),
		Reward:      t.Reward,
		Category:    t.Category,
		Description: t.Description,
	}
	s.n++
	return p
}

// arrivals returns the due offsets (from the run's epoch) of every task
// an open-loop workload offers before horizon.
func arrivals(wl workload, seed int64, horizon time.Duration) []time.Duration {
	var due []time.Duration
	switch wl.Shape {
	case openPoisson:
		rng := rand.New(rand.NewSource(subSeed(seed, streamArrivals)))
		gap := taskgen.Poisson{Rate: wl.Rate}
		for at := gap.Next(rng); at < horizon; at += gap.Next(rng) {
			due = append(due, at)
		}
	case openBurst:
		for at := wl.BurstEvery; at < horizon; at += wl.BurstEvery {
			for i := 0; i < wl.BurstSize; i++ {
				due = append(due, at)
			}
		}
	}
	return due
}

// workerSpec is one crowd member: identity, place, behaviour (already
// compressed) and the seed of its private exec-time stream.
type workerSpec struct {
	ID       string
	Lat, Lon float64
	Behavior crowd.Behavior
	ExecSeed int64
}

func crowdSpecs(wl workload, seed int64) []workerSpec {
	behaviors := crowd.NewPopulation(wl.Workers, rand.New(rand.NewSource(subSeed(seed, streamCrowd))))
	places := rand.New(rand.NewSource(subSeed(seed, streamPlaces)))
	area := taskgen.Generator{}.Normalize().Area
	specs := make([]workerSpec, wl.Workers)
	for i, b := range behaviors {
		b.MinExec /= compress
		b.MaxExec /= compress
		b.DelayMin /= compress
		b.MaxDelay /= compress
		loc := area.RandomPoint(places)
		specs[i] = workerSpec{
			ID:       fmt.Sprintf("w%03d", i),
			Lat:      loc.Lat,
			Lon:      loc.Lon,
			Behavior: b,
			ExecSeed: subSeed(seed, streamExec+uint64(i)<<16),
		}
	}
	return specs
}

// execDraws is one worker's exec-time stream.
type execDraws struct {
	b    crowd.Behavior
	rng  *rand.Rand
	zero bool
}

func (s workerSpec) draws(wl workload) *execDraws {
	return &execDraws{b: s.Behavior, rng: rand.New(rand.NewSource(s.ExecSeed)), zero: wl.ZeroExec}
}

func (d *execDraws) next() time.Duration {
	if d.zero {
		return 0
	}
	return d.b.ExecTime(d.rng)
}

// writeInputs renders the first n tasks with their due offsets and every
// worker with its first k exec draws — the generated inputs in full, in
// one canonical text form. The determinism test compares these bytes.
func writeInputs(w io.Writer, wl workload, seed int64, n, k int) error {
	stream := newTaskStream(wl, seed)
	due := arrivals(wl, seed, time.Hour)
	for i := 0; i < n; i++ {
		p := stream.next()
		at := time.Duration(-1) // closed loop: due when a slot frees
		if wl.Shape != closedLoop {
			if i >= len(due) {
				break
			}
			at = due[i]
		}
		if _, err := fmt.Fprintf(w, "task %s due=%d lat=%v lon=%v deadline_ms=%d reward=%v cat=%s\n",
			p.ID, at, p.Lat, p.Lon, p.DeadlineMS, p.Reward, p.Category); err != nil {
			return err
		}
	}
	for _, s := range crowdSpecs(wl, seed) {
		if _, err := fmt.Fprintf(w, "worker %s lat=%v lon=%v band=[%d,%d] delay=%v[%d,%d] q=%v exec=",
			s.ID, s.Lat, s.Lon, s.Behavior.MinExec, s.Behavior.MaxExec,
			s.Behavior.DelayProb, s.Behavior.DelayMin, s.Behavior.MaxDelay, s.Behavior.Quality); err != nil {
			return err
		}
		d := s.draws(wl)
		for i := 0; i < k; i++ {
			if _, err := fmt.Fprintf(w, "%d,", d.next()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"react/internal/clock"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

var athens = region.Point{Lat: 37.98, Lon: 23.73}

// seasonedWorker returns a profile with enough history that the model is
// active: execTimes are the completion samples, accuracy is positives/total.
func seasonedWorker(id string, execTimes []float64, positives int) *profile.Profile {
	r := profile.NewRegistry()
	p, _ := r.Register(id, athens)
	for i, e := range execTimes {
		p.RecordCompletion("traffic", e, i < positives)
	}
	return p
}

func task(id string, deadline time.Duration, now time.Time) taskq.Task {
	return taskq.Task{
		ID:       id,
		Location: athens,
		Deadline: now.Add(deadline),
		Reward:   0.05,
		Category: "traffic",
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Weight == nil || c.EdgeProbBound != 0.1 ||
		c.MinHistory != 3 || c.BatchBound != 10 ||
		c.BatchPeriod != 5*time.Second {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestQualityWeightEq1(t *testing.T) {
	p := seasonedWorker("w", []float64{5, 6, 7, 8}, 3)
	now := clock.Epoch
	tk := task("t", time.Minute, now)
	if got := QualityWeight(p, tk); got != 0.75 {
		t.Fatalf("quality = %v, want 0.75", got)
	}
	// Unknown category falls back to overall accuracy.
	tk.Category = "photo"
	if got := QualityWeight(p, tk); got != 0.75 {
		t.Fatalf("fallback quality = %v", got)
	}
	// No history at all: neutral.
	var fresh profile.Profile
	if got := QualityWeight(&fresh, tk); got != 0.5 {
		t.Fatalf("fresh quality = %v", got)
	}
}

func TestDistanceWeight(t *testing.T) {
	w := DistanceWeight(10)
	r := profile.NewRegistry()
	near, _ := r.Register("near", athens)
	far, _ := r.Register("far", region.Point{Lat: 40.64, Lon: 22.94}) // ~300km away
	tk := task("t", time.Minute, clock.Epoch)
	if got := w(near, tk); got < 0.99 {
		t.Fatalf("near weight = %v", got)
	}
	if got := w(far, tk); got != 0 {
		t.Fatalf("far weight = %v", got)
	}
	// maxKm <= 0 is coerced to a sane positive value instead of dividing by zero.
	if got := DistanceWeight(0)(near, tk); got < 0 || got > 1 {
		t.Fatalf("coerced weight = %v", got)
	}
}

func TestBlend(t *testing.T) {
	w := Blend(
		Term{0.6, func(*profile.Profile, taskq.Task) float64 { return 1 }},
		Term{0.4, func(*profile.Profile, taskq.Task) float64 { return 0.5 }},
	)
	if got := w(nil, taskq.Task{}); got != 0.8 {
		t.Fatalf("blend = %v, want 0.8", got)
	}
	over := Blend(Term{2.0, func(*profile.Profile, taskq.Task) float64 { return 1 }})
	if got := over(nil, taskq.Task{}); got != 1 {
		t.Fatalf("clamped blend = %v", got)
	}
	// Equal coefficients are representable (the old map API could not).
	half := Blend(
		Term{0.5, func(*profile.Profile, taskq.Task) float64 { return 1 }},
		Term{0.5, func(*profile.Profile, taskq.Task) float64 { return 0 }},
	)
	if got := half(nil, taskq.Task{}); got != 0.5 {
		t.Fatalf("equal-coef blend = %v", got)
	}
}

func TestBuildGraphTraineeRule(t *testing.T) {
	// A brand-new worker gets edges to every task at max weight.
	r := profile.NewRegistry()
	p, _ := r.Register("newbie", athens)
	now := clock.Epoch
	tasks := []taskq.Task{task("t1", time.Minute, now), task("t2", time.Minute, now)}
	g, st := BuildGraph(Config{}, []*profile.Profile{p}, tasks, now)
	if st.Trainees != 1 {
		t.Fatalf("Trainees = %d", st.Trainees)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Weight != 1.0 {
			t.Fatalf("trainee edge weight = %v", e.Weight)
		}
	}
}

func TestBuildGraphPrunesByEq3(t *testing.T) {
	// Worker history: completions around 10-15s. A task whose deadline is
	// 1s away is hopeless (Eq. 3 ≈ 0) and the edge must be pruned; a 120s
	// deadline is comfortably above the bound.
	p := seasonedWorker("w", []float64{10, 12, 15, 11, 13}, 5)
	now := clock.Epoch
	tasks := []taskq.Task{
		task("hopeless", time.Second, now),
		task("fine", 120*time.Second, now),
	}
	g, st := BuildGraph(Config{}, []*profile.Profile{p}, tasks, now)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (hopeless pruned)", g.NumEdges())
	}
	if st.PrunedProb != 1 {
		t.Fatalf("PrunedProb = %d", st.PrunedProb)
	}
	e := g.Edge(0)
	if g.TaskID(e.Task) != "fine" {
		t.Fatalf("surviving edge is %q", g.TaskID(e.Task))
	}
	// Weight comes from Eq. 1, not the trainee max.
	if e.Weight != 1.0 { // 5 positives / 5 finished
		t.Fatalf("weight = %v", e.Weight)
	}
}

func TestBuildGraphRewardRange(t *testing.T) {
	p := seasonedWorker("w", []float64{5, 6, 7}, 3)
	p.SetRewardRange(0.10, 1.0)
	now := clock.Epoch
	cheap := task("cheap", time.Minute, now) // reward 0.05 below range
	rich := task("rich", time.Minute, now)
	rich.Reward = 0.25
	g, st := BuildGraph(Config{}, []*profile.Profile{p}, []taskq.Task{cheap, rich}, now)
	if g.NumEdges() != 1 || st.PrunedReward != 1 {
		t.Fatalf("edges = %d pruned = %d", g.NumEdges(), st.PrunedReward)
	}
	if g.TaskID(g.Edge(0).Task) != "rich" {
		t.Fatal("wrong edge survived the reward filter")
	}
}

func TestBuildGraphWeightClamped(t *testing.T) {
	p := seasonedWorker("w", []float64{5, 6, 7}, 3)
	now := clock.Epoch
	tasks := []taskq.Task{task("t", time.Minute, now)}
	cfg := Config{Weight: func(*profile.Profile, taskq.Task) float64 { return 7.5 }}
	g, _ := BuildGraph(cfg, []*profile.Profile{p}, tasks, now)
	if g.Edge(0).Weight != 1 {
		t.Fatalf("weight not clamped: %v", g.Edge(0).Weight)
	}
	cfg = Config{Weight: func(*profile.Profile, taskq.Task) float64 { return -2 }}
	g, _ = BuildGraph(cfg, []*profile.Profile{p}, tasks, now)
	if g.Edge(0).Weight != 0 {
		t.Fatalf("negative weight not clamped: %v", g.Edge(0).Weight)
	}
}

func TestBuildGraphEmptyInputs(t *testing.T) {
	g, st := BuildGraph(Config{}, nil, nil, clock.Epoch)
	if g.NumWorkers() != 0 || g.NumTasks() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty build: %d/%d/%d", g.NumWorkers(), g.NumTasks(), g.NumEdges())
	}
	if st.Edges != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBuildGraphSkipsDuplicateIDs feeds a snapshot that repeats a worker and
// a task id (a registry bug, not a normal round): the repeats are dropped
// from the batch and every edge still names the vertex it was computed for —
// the builder's index, which after a skipped duplicate is no longer the
// position in the snapshot.
func TestBuildGraphSkipsDuplicateIDs(t *testing.T) {
	now := clock.Epoch
	a := seasonedWorker("a", []float64{1, 1, 1, 1}, 4) // accuracy 1
	b := seasonedWorker("b", []float64{1, 1, 1, 1}, 1) // accuracy 0.25
	workers := []*profile.Profile{a, a, b}
	tasks := []taskq.Task{task("t1", time.Hour, now), task("t1", time.Hour, now), task("t2", time.Hour, now)}
	g, st := BuildGraph(Config{}, workers, tasks, now)
	if g == nil {
		t.Fatal("BuildGraph gave up on a snapshot with duplicate ids")
	}
	if st.Workers != 2 || st.Tasks != 2 || g.NumWorkers() != 2 || g.NumTasks() != 2 {
		t.Fatalf("vertices: stats %+v, graph %d×%d, want 2×2", st, g.NumWorkers(), g.NumTasks())
	}
	got := map[string]float64{}
	for _, e := range g.Edges() {
		got[g.WorkerID(e.Worker)+"→"+g.TaskID(e.Task)] = e.Weight
	}
	want := map[string]float64{"a→t1": 1, "a→t2": 1, "b→t1": 0.25, "b→t2": 0.25}
	if st.Edges != 4 || g.NumEdges() != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v (stats %+v), want %v", got, st, want)
	}
}

func TestBusyWorkersExcludedViaSnapshot(t *testing.T) {
	// The registry's Available() snapshot is the contract: busy workers
	// never reach BuildGraph.
	r := profile.NewRegistry()
	a, _ := r.Register("a", athens)
	r.Register("b", athens)
	a.MarkBusy("elsewhere")
	avail := r.Available()
	if len(avail) != 1 || avail[0].ID() != "b" {
		t.Fatalf("available = %d", len(avail))
	}
	g, _ := BuildGraph(Config{}, avail, []taskq.Task{task("t", time.Minute, clock.Epoch)}, clock.Epoch)
	if g.NumWorkers() != 1 {
		t.Fatalf("graph workers = %d", g.NumWorkers())
	}
}

func TestBuildGraphNoPruning(t *testing.T) {
	// The traditional platform model: every worker-task pair gets an edge
	// at max weight, regardless of history or deadline feasibility.
	p := seasonedWorker("w", []float64{10, 12, 15, 11, 13}, 1)
	now := clock.Epoch
	tasks := []taskq.Task{
		task("hopeless", time.Second, now),
		task("fine", 120*time.Second, now),
	}
	g, st := BuildGraph(Config{NoPruning: true}, []*profile.Profile{p}, tasks, now)
	if g.NumEdges() != 2 || st.PrunedProb != 0 {
		t.Fatalf("edges = %d pruned = %d", g.NumEdges(), st.PrunedProb)
	}
	for _, e := range g.Edges() {
		if e.Weight != 1.0 {
			t.Fatalf("no-pruning edge weight = %v", e.Weight)
		}
	}
}

// Property: every edge surviving construction either belongs to a trainee
// (max weight) or satisfies the Eq.3 probability bound for its task.
func TestQuickSurvivingEdgesMeetBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := profile.NewRegistry()
		var workers []*profile.Profile
		for i := 0; i < 8; i++ {
			p, _ := reg.Register(fmt.Sprintf("w%d", i), athens)
			// Random history depth: some trainees, some modelled.
			n := rng.Intn(8)
			for k := 0; k < n; k++ {
				p.RecordCompletion("traffic", 1+rng.Float64()*20, rng.Intn(2) == 0)
			}
			workers = append(workers, p)
		}
		now := clock.Epoch
		var tasks []taskq.Task
		for j := 0; j < 6; j++ {
			tasks = append(tasks, task(fmt.Sprintf("t%d", j),
				time.Duration(1+rng.Intn(120))*time.Second, now))
		}
		cfg := Config{}.Normalize()
		g, _ := BuildGraph(cfg, workers, tasks, now)
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			w := workers[e.Worker]
			if w.Trainee(traineeTasks) {
				if e.Weight != maxWeight {
					return false
				}
				continue
			}
			model, ok := w.Model(cfg.MinHistory)
			if !ok {
				continue // treated as trainee
			}
			ttd := tasks[e.Task].Deadline.Sub(now).Seconds()
			if model.ProbMeetDeadline(ttd) < cfg.EdgeProbBound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuildGraph times one round's graph construction at the mean round
// shapes of the benchmark's capacity (53 workers × 39 tasks) and burst
// (325 × 25) workloads, every worker seasoned so the Eq. 3 path runs.
func BenchmarkBuildGraph(b *testing.B) {
	now := clock.Epoch
	for _, shape := range []struct{ workers, tasks int }{{53, 39}, {325, 25}} {
		workers := make([]*profile.Profile, shape.workers)
		for i := range workers {
			workers[i] = seasonedWorker(fmt.Sprintf("w%03d", i), []float64{1, 2, 3, 2, 1}, 4)
		}
		tasks := make([]taskq.Task, shape.tasks)
		for i := range tasks {
			tasks[i] = task(fmt.Sprintf("t%03d", i), time.Minute, now)
		}
		b.Run(fmt.Sprintf("%dx%d", shape.workers, shape.tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g, _ := BuildGraph(Config{}, workers, tasks, now); g.NumEdges() == 0 {
					b.Fatal("no edges")
				}
			}
		})
	}
}

// Package schedule is the graph-construction half of REACT's Scheduling
// Component (§III.A, §IV.A): from one batch's snapshot of unassigned tasks
// and available workers it builds the weighted bipartite graph —
// instantiating an edge (worker_i, task_j) only when the worker's fitted
// power-law model says Pr(ExecTime_ij < TimeToDeadline_ij) clears the
// application bound (Eq. 3), applying the trainee rule and the optional
// reward-range filter — and defines the weight functions and the batching
// knobs (Config). The round itself — trigger, match, apply — is
// internal/engine's.
package schedule

import (
	"time"

	"react/internal/bipartite"
	"react/internal/profile"
	"react/internal/taskq"
)

// WeightFunc computes w_ij = F(worker_i, task_j) for an edge under
// consideration. Implementations must return values in [0, 1]; the matcher
// relies on non-negative weights.
type WeightFunc func(w *profile.Profile, t taskq.Task) float64

// QualityWeight is Eq. 1, the weight function the paper's experiments use:
// the worker's positive-feedback ratio in the task's category. Workers with
// no history in the category fall back to their overall accuracy, and
// with no history at all to neutral 0.5 (the trainee rule usually handles
// those before this fallback matters).
func QualityWeight(w *profile.Profile, t taskq.Task) float64 {
	if acc, ok := w.Accuracy(t.Category); ok {
		return acc
	}
	if acc, ok := w.OverallAccuracy(); ok {
		return acc
	}
	return 0.5
}

// DistanceWeight builds the location-based weight function sketched in
// §IV.A for applications like congestion detection: workers physically at
// the task's location give the most accurate answers. The weight decays
// linearly from 1 at distance zero to 0 at maxKm and beyond.
func DistanceWeight(maxKm float64) WeightFunc {
	if maxKm <= 0 {
		maxKm = 1
	}
	return func(w *profile.Profile, t taskq.Task) float64 {
		d := w.Location().DistanceKm(t.Location)
		if d >= maxKm {
			return 0
		}
		return 1 - d/maxKm
	}
}

// Term is one component of a blended weight function.
type Term struct {
	Coef float64
	Fn   WeightFunc
}

// Blend combines weight functions with fixed coefficients (e.g. 0.7·quality
// + 0.3·proximity). Coefficients should sum to at most 1 to keep results in
// [0, 1]; the blend clamps either way.
func Blend(terms ...Term) WeightFunc {
	return func(w *profile.Profile, t taskq.Task) float64 {
		var sum float64
		for _, term := range terms {
			sum += term.Coef * term.Fn(w, t)
		}
		if sum < 0 {
			return 0
		}
		if sum > 1 {
			return 1
		}
		return sum
	}
}

// The training rule's two fixed numbers (§IV.A).
const (
	traineeTasks = 3   // z: completions before a new worker stops getting every edge
	maxWeight    = 1.0 // the weight of a trainee (or NoPruning) edge
)

// Config parameterizes graph construction and batching. The zero value is
// completed by Normalize with the paper's experimental settings.
type Config struct {
	Weight        WeightFunc    // edge weight function (default QualityWeight)
	EdgeProbBound float64       // Eq. 3 lower bound for instantiating an edge (default 0.1)
	MinHistory    int           // samples required before the model is trusted (default 3)
	BatchBound    int           // run a batch once unassigned tasks exceed this (default 10)
	BatchPeriod   time.Duration // and at least this often regardless (default 5s)
	// NoPruning disables the Eq. 3 probability filter and the quality
	// weight, instantiating every (worker, task) edge at the maximum
	// weight. This models the traditional AMT-style platform of §V.C,
	// which has no worker model at all.
	NoPruning bool
}

// Normalize fills zero fields with the defaults used in §V.C.
func (c Config) Normalize() Config {
	if c.Weight == nil {
		c.Weight = QualityWeight
	}
	if c.EdgeProbBound <= 0 {
		c.EdgeProbBound = 0.1
	}
	if c.MinHistory <= 0 {
		c.MinHistory = profile.DefaultMinHistory
	}
	if c.BatchBound <= 0 {
		c.BatchBound = 10
	}
	if c.BatchPeriod <= 0 {
		c.BatchPeriod = 5 * time.Second
	}
	return c
}

// BuildStats describes one graph construction.
type BuildStats struct {
	Workers      int
	Tasks        int
	Edges        int
	PrunedProb   int // edges dropped by the Eq. 3 bound
	PrunedReward int // edges dropped by the reward-range filter
	Trainees     int // workers granted full edges at max weight
}

// BuildGraph constructs the weighted bipartite graph for one batch at the
// given instant. Workers must be the available snapshot, tasks the
// unassigned snapshot; the function never blocks on either component.
func BuildGraph(cfg Config, workers []*profile.Profile, tasks []taskq.Task, now time.Time) (*bipartite.Graph, BuildStats) {
	cfg = cfg.Normalize()
	var st BuildStats
	st.Workers = len(workers)
	st.Tasks = len(tasks)
	b := bipartite.NewBuilder(len(workers), len(tasks))
	// Edges name the vertex index the builder handed out, not the position in
	// the snapshot: the two differ after a skipped duplicate (-1 here).
	idx := make([]int32, len(workers)+len(tasks))
	workerIdx, taskIdx := idx[:len(workers)], idx[len(workers):]
	for i, w := range workers {
		vi, err := b.AddWorker(w.ID())
		if err != nil {
			// Duplicate worker in the snapshot would be a registry bug;
			// skip rather than corrupt the batch.
			st.Workers--
			vi = -1
		}
		workerIdx[i] = vi
	}
	for i, t := range tasks {
		vi, err := b.AddTask(t.ID)
		if err != nil {
			st.Tasks--
			vi = -1
		}
		taskIdx[i] = vi
	}
	for wi, w := range workers {
		if workerIdx[wi] < 0 {
			continue
		}
		trainee := w.Trainee(traineeTasks)
		model, hasModel := w.Model(cfg.MinHistory)
		if trainee {
			st.Trainees++
		}
		for ti, t := range tasks {
			if taskIdx[ti] < 0 {
				continue
			}
			if !w.AcceptsReward(t.Reward) {
				st.PrunedReward++
				continue
			}
			var weight float64
			switch {
			case cfg.NoPruning:
				weight = maxWeight
			case trainee || !hasModel:
				// Training rule (§IV.A): instantiate edges with every task
				// at the maximum weight so the profile gets built.
				weight = maxWeight
			default:
				ttd := t.Deadline.Sub(now).Seconds()
				if p := model.ProbMeetDeadline(ttd); p < cfg.EdgeProbBound {
					st.PrunedProb++
					continue
				}
				weight = cfg.Weight(w, t)
				if weight < 0 {
					weight = 0
				}
				if weight > 1 {
					weight = 1
				}
			}
			if err := b.AddEdgeIdx(workerIdx[wi], taskIdx[ti], weight); err != nil {
				return nil, st // unreachable with valid indices; fail loudly via nil
			}
			st.Edges++
		}
	}
	return b.Build(), st
}

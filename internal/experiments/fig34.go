package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"react/internal/bipartite"
	"react/internal/matching"
	"react/internal/sim"
)

// MatchPoint is one measurement of the Figure 3/4 experiment: one algorithm
// on one full graph, reporting measured wall time (Fig. 3) and output
// weight (Fig. 4).
type MatchPoint struct {
	Algorithm string
	Cycles    int // 0 for non-iterative algorithms
	Workers   int
	Tasks     int
	Edges     int
	Elapsed   time.Duration
	Weight    float64
	Matched   int
}

// MatchBenchConfig parameterizes the sweep. Zero fields are filled with the
// paper's setup: 1000 workers, task counts 1→1000, cycle budgets 1000 and
// 3000, uniform [0,1) weights on a full graph (the WBGM worst case).
type MatchBenchConfig struct {
	Workers    int
	TaskCounts []int
	Cycles     []int
	Seed       int64
	// Hungarian additionally runs the exact solver at every point, giving
	// the optimality reference the paper's offline discussion appeals to.
	// It is off by default: O(n³) at 1000×1000 is slow enough to dominate
	// the sweep.
	Hungarian bool
}

// Normalize fills defaults.
func (c MatchBenchConfig) Normalize() MatchBenchConfig {
	if c.Workers <= 0 {
		c.Workers = 1000
	}
	if len(c.TaskCounts) == 0 {
		c.TaskCounts = []int{1, 10, 50, 100, 250, 500, 750, 1000}
	}
	if len(c.Cycles) == 0 {
		c.Cycles = []int{1000, 3000}
	}
	return c
}

// RunMatchBench executes the Figure 3/4 sweep and returns one point per
// (algorithm, task count) pair. Graph construction is excluded from the
// timings, matching the paper's measurement of assignment time only.
func RunMatchBench(cfg MatchBenchConfig) []MatchPoint {
	cfg = cfg.Normalize()
	var out []MatchPoint
	for _, tasks := range cfg.TaskCounts {
		g := fullUniformGraph(cfg.Workers, tasks, cfg.Seed)
		run := func(name string, cycles int, m matching.Matcher) {
			//lint:ignore clockdiscipline,clocktaint Figs. 3/4 measure the matchers' real Go wall time; a virtual clock here would defeat the experiment
			start := time.Now()
			match, _ := m.Match(g)
			out = append(out, MatchPoint{
				Algorithm: name,
				Cycles:    cycles,
				Workers:   cfg.Workers,
				Tasks:     tasks,
				Edges:     g.NumEdges(),
				//lint:ignore clockdiscipline,clocktaint see above: real wall time by design
				Elapsed: time.Since(start),
				Weight:  match.Weight(),
				Matched: match.Size(),
			})
		}
		run("greedy", 0, matching.Greedy{})
		for _, cycles := range cfg.Cycles {
			run(fmt.Sprintf("react-%d", cycles), cycles,
				matching.REACT{Cycles: cycles, Rand: sim.Rand(cfg.Seed, "fig34-react")})
			run(fmt.Sprintf("metropolis-%d", cycles), cycles,
				matching.Metropolis{Cycles: cycles, Rand: sim.Rand(cfg.Seed, "fig34-metro")})
		}
		if cfg.Hungarian {
			run("hungarian", 0, matching.Hungarian{})
		}
	}
	return out
}

// fullUniformGraph is the paper's worst-case topology: every worker
// connected to every task with a uniform [0,1) weight, deterministic in the
// seed and independent of the task count ordering.
func fullUniformGraph(workers, tasks int, seed int64) *bipartite.Graph {
	// A per-pair RNG would be slow; derive weights from a single stream
	// indexed row-major so the same (worker, task) pair always gets the
	// same weight for a given seed.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	weights := make([]float64, workers*tasks)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	return bipartite.Full(workers, tasks, func(w, t int) float64 {
		return weights[w*tasks+t]
	})
}

// Package experiments reproduces the paper's evaluation (§V): the matcher
// micro-benchmarks of Figures 3–4, the end-to-end crowdsourcing scenario of
// Figures 5–8, and the scalability sweep of Figures 9–10. Everything runs
// on the deterministic discrete-event engine, so a (figure, seed) pair
// always regenerates the same series.
//
// # Modelled matcher latency
//
// The paper's middleware ran in Java on a shared PlanetLab node; the
// matcher latencies it observed are what drive the queueing collapse in
// Figures 5 and 9. A Go reimplementation is orders of magnitude faster, so
// charging *our* wall time to the virtual clock would erase the phenomenon
// being studied. Instead each technique charges an analytic latency:
//
//	Greedy:      |V|·|E| · 10 µs    (calibrated to the Figure 5 collapse)
//	REACT/Metro: c·|E|   · 14 ns    (calibrated to Figure 3: 1000 cycles on
//	                                 a 10⁶-edge graph ≈ 14 s vs paper's ≈12 s)
//	Traditional: |E|     · 1 ns     (an availability lookup, effectively free)
//
// The REACT constant comes straight from Figure 3. The Greedy constant
// cannot: with Figure 3's per-op cost (≈0.1 µs) a batch of ~15 tasks clears
// in milliseconds and Greedy would never queue, yet the paper's own Figure 5
// shows it collapsing after ~4200 tasks at 750 workers and 9.375 tasks/s.
// The paper's end-to-end Greedy evidently paid ~50× more per edge
// inspection than its isolated benchmark (shared node also hosting the
// simulated crowd, per-batch graph maintenance, JVM churn). We therefore
// calibrate GreedyScanCost to the collapse boundary the paper reports —
// marginal instability at 750 workers under reassignment traffic — and
// document the substitution in DESIGN.md. The real matchers still run
// (assignments are genuine); only the *clock charge* is modelled. The
// Figure 3/4 micro-benchmarks report measured Go wall time, not this model.
package experiments

import (
	"time"

	"react/internal/matching"
	"react/internal/sim"
)

// Calibration constants for the modelled matcher latency (see package doc).
const (
	GreedyScanCost = 10 * time.Microsecond // per task×edge inspection (Fig. 5 calibration)
	IterCycleCost  = 14 * time.Nanosecond  // per cycle×edge for REACT/Metropolis (Fig. 3)
	UniformCost    = 1 * time.Nanosecond   // per edge for the traditional pick
)

// CostFunc models the wall-clock latency of one matching batch as a
// function of the graph the batch ran on.
type CostFunc func(tasks, workers, edges, cycles int) time.Duration

// Technique bundles everything that distinguishes the three systems
// compared in §V.C: the matching algorithm, whether the platform keeps a
// worker model (Eq. 3 pruning and, unless the scenario sets a threshold,
// the Eq. 2 monitor), and the modelled matcher latency.
type Technique struct {
	Name      string
	Matcher   matching.Matcher
	NoPruning bool // traditional platforms have no worker model: no Eq. 3, no Eq. 2
	Cost      CostFunc
}

// REACTTechnique is the paper's system: WBGM via Algorithm 1 with the given
// cycle budget, Eq. 3 edge pruning, and the Eq. 2 reassignment monitor.
func REACTTechnique(cycles int, seed int64) Technique {
	if cycles <= 0 {
		cycles = matching.DefaultCycles
	}
	return Technique{
		Name:    "react",
		Matcher: matching.REACT{Cycles: cycles, Rand: sim.Rand(seed, "matcher-react")},
		Cost: func(tasks, workers, edges, c int) time.Duration {
			return time.Duration(c) * time.Duration(edges) * IterCycleCost
		},
	}
}

// GreedyTechnique is the §V.C Greedy arm: the highest-weight-edge policy
// with the monitor active, charged the paper's Θ(V·E) scan latency. The
// policy itself runs as GreedyIndexed (identical output, Θ(E) real cost) so
// regenerating the figure stays fast; the modelled charge preserves the
// collapse.
func GreedyTechnique() Technique {
	return Technique{
		Name:    "greedy",
		Matcher: matching.GreedyIndexed{},
		Cost: func(tasks, workers, edges, c int) time.Duration {
			return time.Duration(tasks) * time.Duration(edges) * GreedyScanCost
		},
	}
}

// TraditionalTechnique models AMT-style platforms: uniform worker choice,
// no worker model (no pruning), no reassignment.
func TraditionalTechnique(seed int64) Technique {
	return Technique{
		Name:      "traditional",
		Matcher:   matching.Uniform{Rand: sim.Rand(seed, "matcher-uniform")},
		NoPruning: true,
		Cost: func(tasks, workers, edges, c int) time.Duration {
			return time.Duration(edges) * UniformCost
		},
	}
}

// techniques is the §V.C comparison, in report order: REACT, Greedy and
// Traditional, each with its matcher RNG drawn from seed.
func techniques(seed int64) []Technique {
	return []Technique{REACTTechnique(0, seed), GreedyTechnique(), TraditionalTechnique(seed)}
}

// Package matching implements the assignment algorithms evaluated in the
// paper (§IV.A, §V.B):
//
//   - REACT: the paper's randomized state-flip heuristic (Algorithm 1) with
//     the g(x')=0 conflict-resolution branch and Metropolis-style acceptance
//     of worse states;
//   - Metropolis: the baseline from Shih's thesis that REACT is compared
//     against — identical search but without the conflict branch;
//   - Greedy: the O(V·E) highest-weight-edge-per-task baseline;
//   - Uniform: the "traditional" crowdsourcing assignment (workers pick
//     tasks effectively at random, as on AMT) used in §V.C;
//   - Hungarian: an exact O(n³) maximum-weight solver, the offline optimum
//     the introduction mentions, used here to measure optimality gaps.
//
// All matchers are deterministic given their RNG and never mutate the input
// graph.
package matching

import (
	"math/rand"
	randv2 "math/rand/v2"

	"react/internal/bipartite"
)

// Matcher computes a conflict-free assignment on a weighted bipartite graph.
type Matcher interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Match returns a valid matching on g together with search statistics.
	Match(g *bipartite.Graph) (*bipartite.Matching, Stats)
}

// Stats describes what a matcher did; the figure harnesses report them
// alongside wall time and output weight.
type Stats struct {
	Cycles       int // search iterations executed (0 for non-iterative matchers)
	Adds         int // edges accepted into the matching
	Removes      int // edges removed by a downhill-accepted flip
	Swaps        int // conflict resolutions that replaced existing edge(s)
	Rejects      int // proposed flips rejected
	WorseAccepts int // downhill moves accepted by the e^{Δ/K} rule
	EdgesScanned int // edge weight inspections (dominant cost for Greedy)
}

// DefaultCycles is the cycle budget the paper's end-to-end experiments use
// for REACT and Metropolis.
const DefaultCycles = 1000

// AdaptiveCycles scales the cycle budget with the graph's order of
// magnitude, the tuning the paper suggests instead of a fixed constant: one
// expected visit per edge, with DefaultCycles as the floor.
func AdaptiveCycles(edges int) int {
	if edges < DefaultCycles {
		return DefaultCycles
	}
	return edges
}

// acceptConstant picks the K of the e^{(g(x')−g(x))/K} rule when the caller
// leaves it zero: a quarter of the largest edge weight, so removing a
// typical edge survives with probability e^{−4·w/w_max} — rare enough to
// stay near the hill-climb, frequent enough to escape local optima.
func acceptConstant(k float64, g *bipartite.Graph) float64 {
	if k > 0 {
		return k
	}
	if max := g.MaxWeight(); max > 0 {
		return max / 4
	}
	return 1
}

// rngOrDefault keeps matchers usable with a nil RNG while staying
// deterministic: every call replays one fixed stream. The stream is a PCG,
// whose state is two words, so seeding it costs ≈ 40 ns and one 16-byte
// allocation per match; rand.NewSource(1) fills a 607-word table (≈ 13 µs
// and 5.4 KB) on every round of a live engine that passes no RNG.
func rngOrDefault(r *rand.Rand) *rand.Rand {
	if r != nil {
		return r
	}
	src := &pcgSource{}
	src.PCG.Seed(1, 2)
	return rand.New(src)
}

// pcgSource adapts math/rand/v2's PCG to the math/rand Source64 the
// matchers draw from.
type pcgSource struct{ randv2.PCG }

// Int63 and Seed complete math/rand.Source; Uint64 is PCG's own.
func (s *pcgSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *pcgSource) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

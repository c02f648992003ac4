package matching

import (
	"math"
	"math/rand"

	"react/internal/bipartite"
)

// REACT is Algorithm 1 of the paper: for a fixed number of cycles, pick a
// uniformly random edge and flip its membership bit in the search state x.
//
//   - Flips that raise the fitness g(x) = Σ x_ij·w_ij are accepted.
//   - A flip that would make two selected edges share a vertex drives g to 0
//     (the matching is no longer "reasonable"); REACT's distinguishing branch
//     then compares the new edge's weight against every conflicting matched
//     edge and swaps them out when the new edge is strictly heavier.
//   - A flip that lowers the fitness (removing a selected edge) is accepted
//     with probability e^{(g(x')−g(x))/K}, the simulated-annealing escape
//     hatch.
//
// The zero value runs with DefaultCycles, an auto-scaled K, and a fixed
// seed; set Cycles/K/Rand to override, or Adaptive to scale cycles with the
// edge count as §IV.A suggests.
type REACT struct {
	Cycles   int        // iteration budget c (0 → DefaultCycles)
	K        float64    // acceptance constant (0 → MaxWeight/4)
	Rand     *rand.Rand // RNG; nil → deterministic default
	Adaptive bool       // scale cycles to the edge count (overrides Cycles)
}

// Name implements Matcher.
func (a REACT) Name() string { return "react" }

// Match implements Matcher.
func (a REACT) Match(g *bipartite.Graph) (*bipartite.Matching, Stats) {
	m := bipartite.NewMatching(g)
	e := g.NumEdges()
	if e == 0 {
		return m, Stats{}
	}
	cycles := a.Cycles
	if a.Adaptive {
		cycles = AdaptiveCycles(e)
	} else if cycles <= 0 {
		cycles = DefaultCycles
	}
	k := acceptConstant(a.K, g)
	rng := rngOrDefault(a.Rand)
	var st Stats
	st.Cycles = cycles

	for loop := 0; loop < cycles; loop++ {
		ei := int32(rng.Intn(e))
		edge := g.Edge(int(ei))
		if m.Selected(ei) {
			// Flipping 1→0 lowers g by the edge weight: accept with the
			// annealing probability (weights are non-negative, so this is
			// never an uphill move).
			if edge.Weight <= 0 || rng.Float64() <= math.Exp(-edge.Weight/k) {
				m.Remove(ei)
				st.Removes++
				if edge.Weight > 0 {
					st.WorseAccepts++
				}
			} else {
				st.Rejects++
			}
			continue
		}
		out, n := m.Conflicts(ei)
		conflicts := out[:n]
		if n == 0 {
			// g(x') = g(x) + w ≥ g(x): always accept.
			m.Add(ei)
			st.Adds++
			continue
		}
		// g(x') = 0 branch: replace the conflicting edge(s) only if the new
		// edge is strictly heavier than each of them.
		better := true
		for _, ce := range conflicts {
			if g.Edge(int(ce)).Weight >= edge.Weight {
				better = false
				break
			}
		}
		if !better {
			st.Rejects++
			continue
		}
		for _, ce := range conflicts {
			m.Remove(ce)
		}
		m.Add(ei)
		st.Swaps++
	}
	return m, st
}

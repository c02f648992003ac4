package matching

import (
	"math"
	"math/rand"

	"react/internal/bipartite"
)

// Metropolis is the baseline Markov-chain matcher REACT is evaluated
// against (§V.B, from Shih's thesis): the same random edge-flip search, but
// without REACT's conflict-resolution branch. A flip that would create a
// vertex conflict leaves the state with fitness g(x') = 0, which the
// Metropolis rule accepts only with probability e^{(0−g(x))/K} — essentially
// never once the matching has any weight. When such a move *is* accepted,
// validity is restored by evicting the conflicting edges, which is the
// closest valid-state interpretation of "accept x'" and is what lets the
// chain leave a conflict-accepted state immediately, as in the original
// algorithm. The practical consequence is the one the paper measures:
// Metropolis needs more cycles than REACT to reach the same weight because
// it cannot swap a heavier edge in directly.
type Metropolis struct {
	Cycles   int
	K        float64
	Rand     *rand.Rand
	Adaptive bool
}

// Name implements Matcher.
func (a Metropolis) Name() string { return "metropolis" }

// Match implements Matcher.
func (a Metropolis) Match(g *bipartite.Graph) (*bipartite.Matching, Stats) {
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
			m.Add(ei)
			st.Adds++
			continue
		}
		// No conflict branch: g(x') = 0 < g(x); accept with e^{−g/K}.
		if rng.Float64() <= math.Exp(-m.Weight()/k) {
			for _, ce := range conflicts {
				m.Remove(ce)
			}
			m.Add(ei)
			st.WorseAccepts++
			st.Swaps++
		} else {
			st.Rejects++
		}
	}
	return m, st
}

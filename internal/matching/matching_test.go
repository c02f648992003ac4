package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"react/internal/bipartite"
)

// randomGraph builds a bipartite graph with the given density and U[0,1)
// weights, deterministically from seed.
func randomGraph(nW, nT int, density float64, seed int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(nW, nT)
	for i := 0; i < nW; i++ {
		b.AddWorker(workerName(i))
	}
	for j := 0; j < nT; j++ {
		b.AddTask(taskName(j))
	}
	for i := 0; i < nW; i++ {
		for j := 0; j < nT; j++ {
			if rng.Float64() < density {
				b.AddEdgeIdx(int32(i), int32(j), rng.Float64())
			}
		}
	}
	return b.Build()
}

func workerName(i int) string { return "w" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }
func taskName(j int) string   { return "t" + string(rune('0'+j/10)) + string(rune('0'+j%10)) }

// bruteForce computes the exact maximum matching weight by recursion over
// tasks; usable only on tiny graphs.
func bruteForce(g *bipartite.Graph) float64 {
	usedW := make([]bool, g.NumWorkers())
	var rec func(t int32) float64
	rec = func(t int32) float64 {
		if t == int32(g.NumTasks()) {
			return 0
		}
		best := rec(t + 1) // leave task t unmatched
		for _, ei := range g.TaskEdges(t) {
			e := g.Edge(int(ei))
			if usedW[e.Worker] {
				continue
			}
			usedW[e.Worker] = true
			if w := e.Weight + rec(t+1); w > best {
				best = w
			}
			usedW[e.Worker] = false
		}
		return best
	}
	return rec(0)
}

func allMatchers(seed int64) []Matcher {
	return []Matcher{
		REACT{Cycles: 2000, Rand: rand.New(rand.NewSource(seed))},
		Metropolis{Cycles: 2000, Rand: rand.New(rand.NewSource(seed))},
		Greedy{},
		GreedyIndexed{},
		Uniform{Rand: rand.New(rand.NewSource(seed))},
		Hungarian{},
	}
}

func TestAllMatchersProduceValidMatchings(t *testing.T) {
	for _, density := range []float64{0.1, 0.5, 1.0} {
		g := randomGraph(12, 9, density, 42)
		for _, a := range allMatchers(7) {
			m, _ := a.Match(g)
			if err := m.Validate(); err != nil {
				t.Errorf("%s on density %.1f: %v", a.Name(), density, err)
			}
		}
	}
}

func TestAllMatchersHandleEmptyGraphs(t *testing.T) {
	empty := bipartite.NewBuilder(0, 0).Build()
	noEdges := randomGraph(5, 5, 0, 1)
	for _, a := range allMatchers(1) {
		for _, g := range []*bipartite.Graph{empty, noEdges} {
			m, st := a.Match(g)
			if m.Size() != 0 || m.Weight() != 0 {
				t.Errorf("%s on empty graph: size=%d weight=%v", a.Name(), m.Size(), m.Weight())
			}
			if st.Adds != 0 {
				t.Errorf("%s on empty graph reported %d adds", a.Name(), st.Adds)
			}
		}
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, dims := range [][2]int{{4, 4}, {5, 3}, {3, 6}, {6, 6}} {
			g := randomGraph(dims[0], dims[1], 0.7, seed)
			m, _ := Hungarian{}.Match(g)
			want := bruteForce(g)
			if math.Abs(m.Weight()-want) > 1e-9 {
				t.Fatalf("seed %d dims %v: hungarian %v, brute force %v", seed, dims, m.Weight(), want)
			}
		}
	}
}

func TestHungarianKnownMatrix(t *testing.T) {
	// Classic 3x3 instance: optimal assignment is the anti-diagonal.
	b := bipartite.NewBuilder(3, 3)
	for i := 0; i < 3; i++ {
		b.AddWorker(workerName(i))
		b.AddTask(taskName(i))
	}
	w := [3][3]float64{
		{1, 2, 9},
		{2, 7, 3},
		{8, 2, 1},
	}
	for i := int32(0); i < 3; i++ {
		for j := int32(0); j < 3; j++ {
			b.AddEdgeIdx(i, j, w[i][j])
		}
	}
	m, _ := Hungarian{}.Match(b.Build())
	if m.Weight() != 24 {
		t.Fatalf("weight = %v, want 24 (9+7+8)", m.Weight())
	}
	if m.Size() != 3 {
		t.Fatalf("size = %d, want 3", m.Size())
	}
}

func TestHeuristicsNeverExceedOptimum(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(10, 10, 0.6, seed+100)
		opt, _ := Hungarian{}.Match(g)
		for _, a := range allMatchers(seed) {
			m, _ := a.Match(g)
			if m.Weight() > opt.Weight()+1e-9 {
				t.Fatalf("%s weight %v exceeds optimum %v (seed %d)", a.Name(), m.Weight(), opt.Weight(), seed)
			}
		}
	}
}

func TestGreedyNearOptimalOnFullGraph(t *testing.T) {
	// §V.B: on full graphs with many spare workers Greedy is almost optimal
	// because some free worker always has weight close to the maximum.
	g := bipartite.Full(100, 30, func(w, tk int) float64 {
		return rand.New(rand.NewSource(int64(w*31 + tk))).Float64()
	})
	opt, _ := Hungarian{}.Match(g)
	grd, _ := Greedy{}.Match(g)
	if grd.Weight() < 0.95*opt.Weight() {
		t.Fatalf("greedy %v far below optimum %v", grd.Weight(), opt.Weight())
	}
	if grd.Size() != 30 {
		t.Fatalf("greedy matched %d of 30 tasks on a full graph", grd.Size())
	}
}

func TestGreedyIndexedSameResultAsGreedy(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(15, 12, 0.5, seed+50)
		a, _ := Greedy{}.Match(g)
		b, _ := GreedyIndexed{}.Match(g)
		if math.Abs(a.Weight()-b.Weight()) > 1e-12 || a.Size() != b.Size() {
			t.Fatalf("seed %d: greedy %v/%d, indexed %v/%d", seed, a.Weight(), a.Size(), b.Weight(), b.Size())
		}
	}
}

func TestGreedyScanCostIsVE(t *testing.T) {
	g := bipartite.Full(20, 10, func(w, tk int) float64 { return 1 })
	_, st := Greedy{}.Match(g)
	if want := 10 * g.NumEdges(); st.EdgesScanned != want {
		t.Fatalf("greedy scanned %d edges, want V·E = %d", st.EdgesScanned, want)
	}
	_, sti := GreedyIndexed{}.Match(g)
	if want := g.NumEdges(); sti.EdgesScanned != want {
		t.Fatalf("indexed greedy scanned %d edges, want E = %d", sti.EdgesScanned, want)
	}
}

func TestREACTBeatsMetropolisAtEqualCycles(t *testing.T) {
	// The paper's central matcher claim (Fig. 4): REACT yields higher
	// output weight than Metropolis for the same cycle budget. Compare
	// totals across several seeds to avoid flakiness from a single run.
	g := bipartite.Full(60, 60, func(w, tk int) float64 {
		return rand.New(rand.NewSource(int64(w*61 + tk))).Float64()
	})
	var reactTotal, metroTotal float64
	for seed := int64(0); seed < 5; seed++ {
		r, _ := REACT{Cycles: 3000, Rand: rand.New(rand.NewSource(seed))}.Match(g)
		mt, _ := Metropolis{Cycles: 3000, Rand: rand.New(rand.NewSource(seed))}.Match(g)
		reactTotal += r.Weight()
		metroTotal += mt.Weight()
	}
	if reactTotal <= metroTotal {
		t.Fatalf("REACT total %v not above Metropolis %v", reactTotal, metroTotal)
	}
}

func TestREACTWithThirdCyclesStillBeatsMetropolis(t *testing.T) {
	// §V.B: "the REACT algorithm results on a higher output even with a
	// third of the cycles".
	g := bipartite.Full(60, 60, func(w, tk int) float64 {
		return rand.New(rand.NewSource(int64(w*67 + tk))).Float64()
	})
	var reactTotal, metroTotal float64
	for seed := int64(0); seed < 5; seed++ {
		r, _ := REACT{Cycles: 1000, Rand: rand.New(rand.NewSource(seed))}.Match(g)
		mt, _ := Metropolis{Cycles: 3000, Rand: rand.New(rand.NewSource(seed))}.Match(g)
		reactTotal += r.Weight()
		metroTotal += mt.Weight()
	}
	if reactTotal <= metroTotal {
		t.Fatalf("REACT(1000) total %v not above Metropolis(3000) %v", reactTotal, metroTotal)
	}
}

func TestREACTImprovesWithMoreCycles(t *testing.T) {
	g := bipartite.Full(80, 80, func(w, tk int) float64 {
		return rand.New(rand.NewSource(int64(w*83 + tk))).Float64()
	})
	short, _ := REACT{Cycles: 200, Rand: rand.New(rand.NewSource(1))}.Match(g)
	long, _ := REACT{Cycles: 20000, Rand: rand.New(rand.NewSource(1))}.Match(g)
	if long.Weight() <= short.Weight() {
		t.Fatalf("more cycles did not help: %v vs %v", long.Weight(), short.Weight())
	}
}

func TestREACTDeterministicForSeed(t *testing.T) {
	g := randomGraph(20, 20, 0.8, 5)
	a, sa := REACT{Cycles: 500, Rand: rand.New(rand.NewSource(9))}.Match(g)
	b, sb := REACT{Cycles: 500, Rand: rand.New(rand.NewSource(9))}.Match(g)
	if a.Weight() != b.Weight() || sa != sb {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Weight(), sa, b.Weight(), sb)
	}
}

func TestREACTZeroValueUsesDefaults(t *testing.T) {
	g := randomGraph(10, 10, 1, 3)
	m, st := REACT{}.Match(g)
	if st.Cycles != DefaultCycles {
		t.Fatalf("zero-value cycles = %d, want %d", st.Cycles, DefaultCycles)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Size() == 0 {
		t.Fatal("default REACT matched nothing on a full 10x10 graph")
	}
}

func TestAdaptiveCycles(t *testing.T) {
	if got := AdaptiveCycles(10); got != DefaultCycles {
		t.Fatalf("AdaptiveCycles(10) = %d, want floor %d", got, DefaultCycles)
	}
	if got := AdaptiveCycles(50_000); got != 50_000 {
		t.Fatalf("AdaptiveCycles(50000) = %d", got)
	}
	g := randomGraph(40, 40, 1, 8) // 1600 edges
	_, st := REACT{Adaptive: true, Rand: rand.New(rand.NewSource(2))}.Match(g)
	if st.Cycles != 1600 {
		t.Fatalf("adaptive run used %d cycles, want 1600", st.Cycles)
	}
}

func TestUniformIgnoresWeights(t *testing.T) {
	// With one heavy edge per task and many light ones, uniform assignment
	// should pick the heavy edge only rarely — unlike Greedy, which always
	// does. This is the skill-blindness of the traditional approach.
	const nW, nT = 30, 10
	b := bipartite.NewBuilder(nW, nT)
	for i := 0; i < nW; i++ {
		b.AddWorker(workerName(i))
	}
	for j := 0; j < nT; j++ {
		b.AddTask(taskName(j))
	}
	for i := int32(0); i < nW; i++ {
		for j := int32(0); j < nT; j++ {
			w := 0.1
			if int32(i) == j { // worker j is the expert for task j
				w = 1.0
			}
			b.AddEdgeIdx(i, j, w)
		}
	}
	g := b.Build()
	grd, _ := Greedy{}.Match(g)
	if grd.Weight() < float64(nT)*0.99 {
		t.Fatalf("greedy should find all experts, weight %v", grd.Weight())
	}
	uni, _ := Uniform{Rand: rand.New(rand.NewSource(4))}.Match(g)
	if uni.Weight() >= grd.Weight() {
		t.Fatalf("uniform weight %v not below greedy %v", uni.Weight(), grd.Weight())
	}
	if uni.Size() != nT {
		t.Fatalf("uniform left tasks unmatched on a full graph: %d/%d", uni.Size(), nT)
	}
}

// Property: REACT's final state is always a valid matching with
// non-negative weight regardless of graph shape or budget.
func TestQuickREACTAlwaysValid(t *testing.T) {
	f := func(seed int64, nw, nt, cyc uint8) bool {
		g := randomGraph(int(nw%10)+1, int(nt%10)+1, 0.5, seed)
		m, _ := REACT{Cycles: int(cyc) + 1, Rand: rand.New(rand.NewSource(seed))}.Match(g)
		return m.Validate() == nil && m.Weight() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Hungarian solver dominates every heuristic on random
// instances.
func TestQuickHungarianDominates(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(7, 7, 0.6, seed)
		opt, _ := Hungarian{}.Match(g)
		r, _ := REACT{Cycles: 500, Rand: rand.New(rand.NewSource(seed))}.Match(g)
		gr, _ := Greedy{}.Match(g)
		return opt.Weight() >= r.Weight()-1e-9 && opt.Weight() >= gr.Weight()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchAllocsIndependentOfCycles pins Algorithm 1's cycle, and the
// Metropolis baseline's, to zero allocations: a match allocates its state
// up front and then nothing per cycle, so 20 k cycles cost what 1 k do.
func TestMatchAllocsIndependentOfCycles(t *testing.T) {
	g := randomGraph(40, 40, 0.6, 11)
	for _, name := range []string{"react", "metropolis"} {
		allocs := func(cycles int) float64 {
			var m Matcher = REACT{Cycles: cycles}
			if name == "metropolis" {
				m = Metropolis{Cycles: cycles}
			}
			return testing.AllocsPerRun(5, func() { m.Match(g) })
		}
		if short, long := allocs(1_000), allocs(20_000); short != long {
			t.Errorf("%s: %v allocs at 1k cycles, %v at 20k", name, short, long)
		}
	}
}

func BenchmarkREACT1000Cycles100x100(b *testing.B) {
	g := bipartite.Full(100, 100, func(w, tk int) float64 { return float64((w*101+tk)%100) / 100 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		REACT{Cycles: 1000, Rand: rand.New(rand.NewSource(int64(i)))}.Match(g)
	}
}

func BenchmarkGreedy100x100(b *testing.B) {
	g := bipartite.Full(100, 100, func(w, tk int) float64 { return float64((w*101+tk)%100) / 100 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy{}.Match(g)
	}
}

func BenchmarkHungarian100x100(b *testing.B) {
	g := bipartite.Full(100, 100, func(w, tk int) float64 { return float64((w*101+tk)%100) / 100 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hungarian{}.Match(g)
	}
}

// TestNilRandDefaultIsFixedAndCheap pins the default a live engine's
// matcher runs on: with no RNG, every match replays one stream (two runs
// agree), and seeding it allocates at most two small objects, not a source
// table.
func TestNilRandDefaultIsFixedAndCheap(t *testing.T) {
	g := randomGraph(30, 30, 0.5, 5)
	a, sa := REACT{Adaptive: true}.Match(g)
	b, sb := REACT{Adaptive: true}.Match(g)
	if a.Weight() != b.Weight() || sa != sb {
		t.Fatalf("nil-Rand matches diverged: %v/%v vs %v/%v", a.Weight(), sa, b.Weight(), sb)
	}
	if allocs := testing.AllocsPerRun(100, func() { rngOrDefault(nil).Intn(10) }); allocs > 2 {
		t.Fatalf("default RNG allocates %v objects per match, want at most 2", allocs)
	}
}

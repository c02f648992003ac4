package bipartite

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// buildSmall constructs the worked example used across tests:
// 3 workers, 2 tasks, 4 edges.
func buildSmall(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 2)
	for _, w := range []string{"alice", "bob", "carol"} {
		if _, err := b.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range []string{"traffic", "photo"} {
		if _, err := b.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct {
		w, tk string
		wt    float64
	}{
		{"alice", "traffic", 0.9},
		{"alice", "photo", 0.4},
		{"bob", "traffic", 0.7},
		{"carol", "photo", 0.8},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.w, e.tk, e.wt); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildSmall(t)
	if g.NumWorkers() != 3 || g.NumTasks() != 2 || g.NumEdges() != 4 {
		t.Fatalf("dims = %d/%d/%d", g.NumWorkers(), g.NumTasks(), g.NumEdges())
	}
	if g.WorkerID(0) != "alice" || g.TaskID(1) != "photo" {
		t.Fatal("vertex id mapping broken")
	}
	if got := g.MaxWeight(); got != 0.9 {
		t.Fatalf("MaxWeight = %v", got)
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	var b Builder
	if _, err := b.AddWorker("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddWorker("w"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup worker err = %v", err)
	}
	if _, err := b.AddTask("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddTask("t"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup task err = %v", err)
	}
	if err := b.AddEdge("w", "t", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge("w", "t", 2); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("dup edge err = %v", err)
	}
}

// TestBuilderDuplicateEdgesAcrossLateVertices interleaves vertices and edges,
// the order that makes the duplicate bitset lay itself out again: an edge
// added before a vertex arrived must still be known afterwards, a pair that
// only exists since the new vertex must be free, and the built graph must
// hold each accepted edge once, in the order added.
func TestBuilderDuplicateEdgesAcrossLateVertices(t *testing.T) {
	var b Builder
	mustIdx := func(idx int32, err error) int32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	w0, t0 := mustIdx(b.AddWorker("w0")), mustIdx(b.AddTask("t0"))
	if err := b.AddEdgeIdx(w0, t0, 1); err != nil {
		t.Fatal(err)
	}
	t1 := mustIdx(b.AddTask("t1")) // a new column: every bit moves
	w1 := mustIdx(b.AddWorker("w1"))
	for _, e := range [][2]int32{{w0, t1}, {w1, t0}, {w1, t1}} {
		if err := b.AddEdgeIdx(e[0], e[1], 1); err != nil {
			t.Fatalf("fresh pair %v refused: %v", e, err)
		}
	}
	t2 := mustIdx(b.AddTask("t2"))
	for _, e := range [][2]int32{{w0, t0}, {w0, t1}, {w1, t0}, {w1, t1}} {
		if err := b.AddEdgeIdx(e[0], e[1], 1); !errors.Is(err, ErrDuplicateEdge) {
			t.Fatalf("duplicate %v after a late vertex: err = %v", e, err)
		}
	}
	if err := b.AddEdgeIdx(w1, t2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	want := []Edge{{w0, t0, 1}, {w0, t1, 1}, {w1, t0, 1}, {w1, t1, 1}, {w1, t2, 1}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestBuilderRejectsUnknownAndNegative(t *testing.T) {
	var b Builder
	b.AddWorker("w")
	b.AddTask("t")
	if err := b.AddEdge("nope", "t", 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("unknown worker err = %v", err)
	}
	if err := b.AddEdge("w", "nope", 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("unknown task err = %v", err)
	}
	if err := b.AddEdge("w", "t", -0.5); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight err = %v", err)
	}
	if err := b.AddEdgeIdx(5, 0, 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("bad worker idx err = %v", err)
	}
	if err := b.AddEdgeIdx(0, -1, 1); !errors.Is(err, ErrUnknownVertex) {
		t.Fatalf("bad task idx err = %v", err)
	}
}

func TestIncidenceLists(t *testing.T) {
	g := buildSmall(t)
	// traffic (task 0) touches alice and bob, photo (task 1) alice and
	// carol, each list in edge order.
	for task, want := range [][]int32{{0, 2}, {1, 3}} {
		if got := g.TaskEdges(int32(task)); !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d edges = %v, want %v", task, got, want)
		}
	}
}

// TestTaskEdgesConcurrentFirstCall races the call that lays out the lazy
// incidence lists: a graph is shared once built (the benchmark's tracer
// keeps sampled round graphs and matches them later), so readers on several
// goroutines must all see the same complete lists. Run under -race.
func TestTaskEdgesConcurrentFirstCall(t *testing.T) {
	const workers, tasks = 12, 9
	g := Full(workers, tasks, func(w, tk int) float64 { return 1 })
	var wg sync.WaitGroup
	lists := make([][][]int32, 8)
	for r := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := int32(tasks - 1); tk >= 0; tk-- {
				lists[r] = append(lists[r], g.TaskEdges(tk))
			}
		}()
	}
	wg.Wait()
	for r, got := range lists {
		for i, l := range got {
			tk := int32(tasks - 1 - i)
			if len(l) != workers {
				t.Fatalf("reader %d: task %d degree %d, want %d", r, tk, len(l), workers)
			}
			for _, ei := range l {
				if g.Edge(int(ei)).Task != tk {
					t.Fatalf("reader %d: task %d list holds foreign edge %d", r, tk, ei)
				}
			}
		}
	}
}

func TestFullGraphShape(t *testing.T) {
	g := Full(10, 7, func(w, tk int) float64 { return float64(w*7+tk) / 70 })
	if g.NumWorkers() != 10 || g.NumTasks() != 7 || g.NumEdges() != 70 {
		t.Fatalf("dims = %d/%d/%d", g.NumWorkers(), g.NumTasks(), g.NumEdges())
	}
	for tk := int32(0); tk < 7; tk++ {
		if len(g.TaskEdges(tk)) != 10 {
			t.Fatalf("task %d degree %d", tk, len(g.TaskEdges(tk)))
		}
	}
}

func TestMatchingAddRemove(t *testing.T) {
	g := buildSmall(t)
	m := NewMatching(g)
	if err := m.Validate(); err != nil {
		t.Fatalf("empty matching invalid: %v", err)
	}
	// Select alice-traffic (edge 0).
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || m.Weight() != 0.9 {
		t.Fatalf("after add: size=%d weight=%v", m.Size(), m.Weight())
	}
	// alice-photo conflicts at alice.
	if err := m.Add(1); !errors.Is(err, ErrEdgeConflict) {
		t.Fatalf("conflicting add err = %v", err)
	}
	// bob-traffic conflicts at traffic.
	if err := m.Add(2); !errors.Is(err, ErrEdgeConflict) {
		t.Fatalf("conflicting add err = %v", err)
	}
	// carol-photo is independent.
	if err := m.Add(3); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 || math.Abs(m.Weight()-1.7) > 1e-12 {
		t.Fatalf("size=%d weight=%v", m.Size(), m.Weight())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remove and re-add.
	if err := m.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(0); !errors.Is(err, ErrNotSelected) {
		t.Fatalf("double remove err = %v", err)
	}
	if err := m.Add(2); err != nil { // bob can now take traffic
		t.Fatal(err)
	}
	if m.Weight() != 1.5 {
		t.Fatalf("weight = %v, want 1.5", m.Weight())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingRangeErrors(t *testing.T) {
	m := NewMatching(buildSmall(t))
	if err := m.Add(-1); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("Add(-1) err = %v", err)
	}
	if err := m.Add(99); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("Add(99) err = %v", err)
	}
	if err := m.Remove(99); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("Remove(99) err = %v", err)
	}
	if m.Selected(-1) || m.Selected(99) {
		t.Fatal("out-of-range Selected returned true")
	}
}

func TestMatchingDoubleAdd(t *testing.T) {
	m := NewMatching(buildSmall(t))
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("double add err = %v", err)
	}
}

func TestConflicts(t *testing.T) {
	g := buildSmall(t)
	m := NewMatching(g)
	m.Add(0) // alice-traffic
	m.Add(3) // carol-photo
	// alice-photo conflicts with both selected edges: the worker's first.
	if conf, n := m.Conflicts(1); n != 2 || conf != [2]int32{0, 3} {
		t.Fatalf("Conflicts(alice-photo) = %v[:%d], want [0 3]", conf, n)
	}
	// bob-traffic conflicts with alice-traffic only.
	if conf, n := m.Conflicts(2); n != 1 || conf[0] != 0 {
		t.Fatalf("Conflicts(bob-traffic) = %v[:%d], want [0]", conf, n)
	}
	// A selected edge has no conflicts besides itself.
	if conf, n := m.Conflicts(0); n != 0 {
		t.Fatalf("Conflicts(selected) = %v[:%d], want none", conf, n)
	}
	// No allocation, whatever the answer.
	if allocs := testing.AllocsPerRun(100, func() { m.Conflicts(1); m.Conflicts(2) }); allocs != 0 {
		t.Fatalf("Conflicts allocates %v times per call pair", allocs)
	}
}

func TestAssignments(t *testing.T) {
	g := buildSmall(t)
	m := NewMatching(g)
	m.Add(0)
	m.Add(3)
	got := m.Assignments()
	want := map[string]string{"traffic": "alice", "photo": "carol"}
	if len(got) != len(want) {
		t.Fatalf("Assignments = %v", got)
	}
	for task, worker := range want {
		if got[task] != worker {
			t.Fatalf("Assignments[%s] = %s, want %s", task, got[task], worker)
		}
	}
}

func TestPairsMatchesSelected(t *testing.T) {
	g := Full(5, 5, func(w, tk int) float64 { return 1 })
	m := NewMatching(g)
	for i := 0; i < 5; i++ {
		if err := m.Add(int32(i*5 + i)); err != nil { // diagonal
			t.Fatal(err)
		}
	}
	pairs := m.Pairs()
	if len(pairs) != 5 {
		t.Fatalf("Pairs() len = %d", len(pairs))
	}
	for _, e := range pairs {
		if e.Worker != e.Task {
			t.Fatalf("unexpected pair %v", e)
		}
	}
}

// Property: a random sequence of add/remove operations that respects the
// reported errors always leaves a valid matching.
func TestQuickRandomOpsKeepInvariants(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Full(6, 6, func(w, tk int) float64 { return rng.Float64() })
		m := NewMatching(g)
		for i := 0; i < int(nOps); i++ {
			e := int32(rng.Intn(g.NumEdges()))
			if m.Selected(e) {
				if err := m.Remove(e); err != nil {
					return false
				}
			} else if err := m.Add(e); err != nil && !errors.Is(err, ErrEdgeConflict) {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// Property: weight accounting equals the sum over Pairs.
func TestQuickWeightAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Full(8, 8, func(w, tk int) float64 { return float64(rng.Intn(100)) / 100 })
		m := NewMatching(g)
		for i := 0; i < 40; i++ {
			e := int32(rng.Intn(g.NumEdges()))
			if m.Selected(e) {
				m.Remove(e)
			} else {
				m.Add(e) // conflicts allowed to fail silently
			}
		}
		var sum float64
		for _, e := range m.Pairs() {
			sum += e.Weight
		}
		diff := sum - m.Weight()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFullGraphBuild1000x1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := Full(1000, 1000, func(w, tk int) float64 { return float64(w^tk) / 1024 })
		if g.NumEdges() != 1_000_000 {
			b.Fatal("bad edge count")
		}
	}
}

func BenchmarkMatchingAddRemove(b *testing.B) {
	g := Full(100, 100, func(w, tk int) float64 { return 1 })
	m := NewMatching(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := int32(i % g.NumEdges())
		if m.Selected(e) {
			m.Remove(e)
		} else {
			m.Add(e)
		}
	}
}

func ExampleMatching_Assignments() {
	b := NewBuilder(2, 2)
	b.AddWorker("w1")
	b.AddWorker("w2")
	b.AddTask("t1")
	b.AddTask("t2")
	b.AddEdge("w1", "t1", 0.9)
	b.AddEdge("w2", "t2", 0.8)
	g := b.Build()
	m := NewMatching(g)
	m.Add(0)
	m.Add(1)
	fmt.Printf("%s %s %.1f\n", m.Assignments()["t1"], m.Assignments()["t2"], m.Weight())
	// Output: w1 w2 1.7
}

// TestBuilderIDsInAnyOrder drives the vertex index down both of its paths:
// ids arriving in increasing order (no map: a comparison per add, a binary
// search per lookup) and, once one arrives out of order, the map. Either
// way a duplicate is refused, indices follow insertion order, and AddEdge
// finds every vertex by id.
func TestBuilderIDsInAnyOrder(t *testing.T) {
	for _, ids := range [][]string{
		{"a", "b", "c", "d"},
		{"b", "c", "a", "d"},
		{"d", "c", "b", "a"},
	} {
		b := NewBuilder(0, 0)
		for i, id := range ids {
			if got, err := b.AddWorker(id); err != nil || got != int32(i) {
				t.Fatalf("%v: AddWorker(%s) = %d, %v", ids, id, got, err)
			}
			if got, err := b.AddTask(id); err != nil || got != int32(i) {
				t.Fatalf("%v: AddTask(%s) = %d, %v", ids, id, got, err)
			}
		}
		for _, id := range []string{ids[0], ids[len(ids)-1]} {
			if _, err := b.AddWorker(id); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("%v: duplicate worker %s: %v", ids, id, err)
			}
			if _, err := b.AddTask(id); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("%v: duplicate task %s: %v", ids, id, err)
			}
		}
		for _, id := range ids {
			if err := b.AddEdge(id, id, 1); err != nil {
				t.Fatalf("%v: AddEdge(%s): %v", ids, id, err)
			}
		}
		if err := b.AddEdge("zz", ids[0], 1); !errors.Is(err, ErrUnknownVertex) {
			t.Fatalf("%v: unknown worker: %v", ids, err)
		}
		g := b.Build()
		for i, e := range g.Edges() {
			if g.WorkerID(e.Worker) != ids[i] || g.TaskID(e.Task) != ids[i] {
				t.Fatalf("%v: edge %d joins %s and %s", ids, i, g.WorkerID(e.Worker), g.TaskID(e.Task))
			}
		}
	}
}

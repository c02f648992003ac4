// Package bipartite provides the weighted bipartite graph of §III.C: one
// vertex class for available workers, one for unassigned tasks, and an edge
// (worker, task) for every assignment the scheduler considers possible, with
// a weight from the configured weight function. The graph is a compact,
// index-based structure built fresh for every matching batch — the paper's
// scheduling component reconstructs it in real time as workers and tasks
// churn — and a Matching tracks a conflict-free edge subset with O(1)
// add/remove, which is what gives the REACT matcher its O(1) per-cycle cost.
package bipartite

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Errors reported by graph construction and matching mutation.
var (
	ErrUnknownVertex  = errors.New("bipartite: unknown vertex")
	ErrDuplicateEdge  = errors.New("bipartite: duplicate edge")
	ErrEdgeConflict   = errors.New("bipartite: edge endpoint already matched")
	ErrEdgeRange      = errors.New("bipartite: edge index out of range")
	ErrNotSelected    = errors.New("bipartite: edge not in matching")
	ErrDuplicateID    = errors.New("bipartite: duplicate vertex id")
	ErrNegativeWeight = errors.New("bipartite: negative edge weight")
)

// Edge is a possible (worker, task) assignment with its weight w_ij =
// F(worker_i, task_j). Endpoints are vertex indices into the owning graph.
type Edge struct {
	Worker int32
	Task   int32
	Weight float64
}

// Graph is an immutable-after-build weighted bipartite graph. Build one with
// a Builder; the matcher packages then operate on indices only. It is safe
// for concurrent reads, TaskEdges included.
type Graph struct {
	workerIDs []string
	taskIDs   []string
	edges     []Edge
	// byTask lists the edge indices incident to each task. Algorithm 1 draws
	// edges uniformly and never walks a vertex, so the lists are laid out by
	// the first TaskEdges call, not by Build.
	taskOnce sync.Once
	byTask   [][]int32
}

// Builder accumulates vertices and edges for a Graph. The zero value is
// ready to use.
type Builder struct {
	workers, tasks vertexIDs
	edges          []Edge

	// seen is the duplicate-edge test: bit worker*seenTasks+task of a dense
	// workers×tasks bitset, sized for the seenWorkers×seenTasks vertices
	// present when it was last laid out. Callers that add an edge per
	// candidate pair evaluate all workers×tasks pairs anyway, so that many
	// bits is always dominated — and costs one allocation where a map cost
	// one per few edges.
	seen                   []uint64
	seenWorkers, seenTasks int
}

// maxEdgePresize caps the edge slice's first allocation (1 MiB of Edge): a
// round's graph keeps most of its workers×tasks candidate pairs, a huge sparse
// one should grow by doubling instead.
const maxEdgePresize = 1 << 16

// vertexIDs is one vertex class's ids in insertion order, with an index by
// id that is built only once the ids stop arriving in increasing order.
// The worker registry's snapshot is sorted by id, so for workers index
// stays nil: the duplicate test is one comparison with the last id and
// lookups are a binary search. The task store's snapshot is sorted by
// (Submitted, ID), so tasks keep that fast path only while submission
// order agrees with id order.
type vertexIDs struct {
	ids   []string
	index map[string]int32
}

// add appends id and returns its index, or false if id is already present.
func (v *vertexIDs) add(id string) (int32, bool) {
	n := len(v.ids)
	if v.index == nil && (n == 0 || v.ids[n-1] < id) {
		v.ids = append(v.ids, id)
		return int32(n), true
	}
	if v.index == nil {
		v.index = make(map[string]int32, n+1)
		for i, x := range v.ids {
			v.index[x] = int32(i)
		}
	}
	if _, dup := v.index[id]; dup {
		return 0, false
	}
	v.index[id] = int32(n)
	v.ids = append(v.ids, id)
	return int32(n), true
}

// lookup returns id's index.
func (v *vertexIDs) lookup(id string) (int32, bool) {
	if v.index != nil {
		i, ok := v.index[id]
		return i, ok
	}
	i, ok := slices.BinarySearch(v.ids, id)
	return int32(i), ok
}

// NewBuilder pre-sizes the builder for the expected vertex counts.
func NewBuilder(workers, tasks int) *Builder {
	return &Builder{
		workers: vertexIDs{ids: make([]string, 0, workers)},
		tasks:   vertexIDs{ids: make([]string, 0, tasks)},
	}
}

// AddWorker registers a worker vertex and returns its index.
func (b *Builder) AddWorker(id string) (int32, error) {
	idx, ok := b.workers.add(id)
	if !ok {
		return 0, fmt.Errorf("%w: worker %q", ErrDuplicateID, id)
	}
	return idx, nil
}

// AddTask registers a task vertex and returns its index.
func (b *Builder) AddTask(id string) (int32, error) {
	idx, ok := b.tasks.add(id)
	if !ok {
		return 0, fmt.Errorf("%w: task %q", ErrDuplicateID, id)
	}
	return idx, nil
}

// AddEdge connects a previously added worker and task with the given
// non-negative weight. Edges the scheduler prunes (deadline probability
// below the bound, reward out of range) are simply never added.
func (b *Builder) AddEdge(workerID, taskID string, weight float64) error {
	wi, ok := b.workers.lookup(workerID)
	if !ok {
		return fmt.Errorf("%w: worker %q", ErrUnknownVertex, workerID)
	}
	ti, ok := b.tasks.lookup(taskID)
	if !ok {
		return fmt.Errorf("%w: task %q", ErrUnknownVertex, taskID)
	}
	return b.AddEdgeIdx(wi, ti, weight)
}

// AddEdgeIdx is AddEdge for callers that kept the vertex indices.
func (b *Builder) AddEdgeIdx(worker, task int32, weight float64) error {
	if worker < 0 || int(worker) >= len(b.workers.ids) {
		return fmt.Errorf("%w: worker index %d", ErrUnknownVertex, worker)
	}
	if task < 0 || int(task) >= len(b.tasks.ids) {
		return fmt.Errorf("%w: task index %d", ErrUnknownVertex, task)
	}
	if weight < 0 {
		return fmt.Errorf("%w: %v on (%d,%d)", ErrNegativeWeight, weight, worker, task)
	}
	if b.seenWorkers != len(b.workers.ids) || b.seenTasks != len(b.tasks.ids) {
		b.layoutSeen()
	}
	bit := int(worker)*b.seenTasks + int(task)
	word, mask := &b.seen[bit>>6], uint64(1)<<(bit&63)
	if *word&mask != 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, worker, task)
	}
	*word |= mask
	b.edges = append(b.edges, Edge{Worker: worker, Task: task, Weight: weight})
	return nil
}

// layoutSeen sizes the duplicate bitset for the current vertex counts and
// marks the edges added so far: once at the first edge when vertices come
// first, as every caller in the tree adds them, and again whenever a vertex
// was added since. The first layout also sizes the edge slice.
func (b *Builder) layoutSeen() {
	b.seenWorkers, b.seenTasks = len(b.workers.ids), len(b.tasks.ids)
	pairs := b.seenWorkers * b.seenTasks
	b.seen = make([]uint64, (pairs+63)/64)
	for _, e := range b.edges {
		bit := int(e.Worker)*b.seenTasks + int(e.Task)
		b.seen[bit>>6] |= 1 << (bit & 63)
	}
	if b.edges == nil {
		b.edges = make([]Edge, 0, min(pairs, maxEdgePresize))
	}
}

// Build finalizes the graph. The builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	return &Graph{workerIDs: b.workers.ids, taskIDs: b.tasks.ids, edges: b.edges}
}

// indexTasks lays out byTask: a two-pass fill keeps the lists in one
// allocation, each in edge order.
func (g *Graph) indexTasks() {
	g.byTask = make([][]int32, len(g.taskIDs))
	deg := make([]int32, len(g.taskIDs))
	for _, e := range g.edges {
		deg[e.Task]++
	}
	pool := make([]int32, 0, len(g.edges))
	for i, d := range deg {
		g.byTask[i] = pool[len(pool) : len(pool) : len(pool)+int(d)]
		pool = pool[:len(pool)+int(d)]
	}
	for i, e := range g.edges {
		g.byTask[e.Task] = append(g.byTask[e.Task], int32(i))
	}
}

// NumWorkers reports |U|.
func (g *Graph) NumWorkers() int { return len(g.workerIDs) }

// NumTasks reports |V|.
func (g *Graph) NumTasks() int { return len(g.taskIDs) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns edge i by value.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges exposes the edge slice; callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// TaskEdges lists the edge indices incident to task t, in edge order. The
// first call on a graph builds every task's list.
func (g *Graph) TaskEdges(t int32) []int32 {
	g.taskOnce.Do(g.indexTasks)
	return g.byTask[t]
}

// WorkerID resolves a worker index back to its identifier.
func (g *Graph) WorkerID(w int32) string { return g.workerIDs[w] }

// TaskID resolves a task index back to its identifier.
func (g *Graph) TaskID(t int32) string { return g.taskIDs[t] }

// MaxWeight reports the largest edge weight (0 for an edgeless graph),
// which the matchers use to scale the acceptance constant K.
func (g *Graph) MaxWeight() float64 {
	var max float64
	for _, e := range g.edges {
		if e.Weight > max {
			max = e.Weight
		}
	}
	return max
}

// Full builds the complete bipartite graph on nWorkers×nTasks vertices with
// weights produced by weight(i, j). It is the worst-case topology the
// paper's Figure 3/4 experiments use.
func Full(nWorkers, nTasks int, weight func(w, t int) float64) *Graph {
	b := NewBuilder(nWorkers, nTasks)
	for i := 0; i < nWorkers; i++ {
		if _, err := b.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
			panic(err) // unreachable: generated IDs are unique
		}
	}
	for j := 0; j < nTasks; j++ {
		if _, err := b.AddTask(fmt.Sprintf("t%d", j)); err != nil {
			panic(err)
		}
	}
	b.edges = make([]Edge, 0, nWorkers*nTasks)
	for i := 0; i < nWorkers; i++ {
		for j := 0; j < nTasks; j++ {
			// Bypass the duplicate test: the nest is duplicate-free by
			// construction.
			b.edges = append(b.edges, Edge{Worker: int32(i), Task: int32(j), Weight: weight(i, j)})
		}
	}
	return b.Build()
}

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
// a Builder; the matcher packages then operate on indices only.
type Graph struct {
	workerIDs []string
	taskIDs   []string
	edges     []Edge
	byWorker  [][]int32 // edge indices incident to each worker
	byTask    [][]int32 // edge indices incident to each task
}

// Builder accumulates vertices and edges for a Graph. The zero value is
// ready to use.
type Builder struct {
	workerIDs []string
	taskIDs   []string
	workerIdx map[string]int32
	taskIdx   map[string]int32
	edges     []Edge

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

// NewBuilder pre-sizes the builder for the expected vertex counts.
func NewBuilder(workers, tasks int) *Builder {
	return &Builder{
		workerIDs: make([]string, 0, workers),
		taskIDs:   make([]string, 0, tasks),
		workerIdx: make(map[string]int32, workers),
		taskIdx:   make(map[string]int32, tasks),
	}
}

func (b *Builder) init() {
	if b.workerIdx == nil {
		b.workerIdx = make(map[string]int32)
		b.taskIdx = make(map[string]int32)
	}
}

// AddWorker registers a worker vertex and returns its index.
func (b *Builder) AddWorker(id string) (int32, error) {
	b.init()
	if _, ok := b.workerIdx[id]; ok {
		return 0, fmt.Errorf("%w: worker %q", ErrDuplicateID, id)
	}
	idx := int32(len(b.workerIDs))
	b.workerIDs = append(b.workerIDs, id)
	b.workerIdx[id] = idx
	return idx, nil
}

// AddTask registers a task vertex and returns its index.
func (b *Builder) AddTask(id string) (int32, error) {
	b.init()
	if _, ok := b.taskIdx[id]; ok {
		return 0, fmt.Errorf("%w: task %q", ErrDuplicateID, id)
	}
	idx := int32(len(b.taskIDs))
	b.taskIDs = append(b.taskIDs, id)
	b.taskIdx[id] = idx
	return idx, nil
}

// AddEdge connects a previously added worker and task with the given
// non-negative weight. Edges the scheduler prunes (deadline probability
// below the bound, reward out of range) are simply never added.
func (b *Builder) AddEdge(workerID, taskID string, weight float64) error {
	b.init()
	wi, ok := b.workerIdx[workerID]
	if !ok {
		return fmt.Errorf("%w: worker %q", ErrUnknownVertex, workerID)
	}
	ti, ok := b.taskIdx[taskID]
	if !ok {
		return fmt.Errorf("%w: task %q", ErrUnknownVertex, taskID)
	}
	return b.AddEdgeIdx(wi, ti, weight)
}

// AddEdgeIdx is AddEdge for callers that kept the vertex indices.
func (b *Builder) AddEdgeIdx(worker, task int32, weight float64) error {
	if worker < 0 || int(worker) >= len(b.workerIDs) {
		return fmt.Errorf("%w: worker index %d", ErrUnknownVertex, worker)
	}
	if task < 0 || int(task) >= len(b.taskIDs) {
		return fmt.Errorf("%w: task index %d", ErrUnknownVertex, task)
	}
	if weight < 0 {
		return fmt.Errorf("%w: %v on (%d,%d)", ErrNegativeWeight, weight, worker, task)
	}
	if b.seenWorkers != len(b.workerIDs) || b.seenTasks != len(b.taskIDs) {
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
	b.seenWorkers, b.seenTasks = len(b.workerIDs), len(b.taskIDs)
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
	g := &Graph{
		workerIDs: b.workerIDs,
		taskIDs:   b.taskIDs,
		edges:     b.edges,
		byWorker:  make([][]int32, len(b.workerIDs)),
		byTask:    make([][]int32, len(b.taskIDs)),
	}
	// Two-pass fill keeps the incidence lists in single allocations.
	wDeg := make([]int32, len(b.workerIDs))
	tDeg := make([]int32, len(b.taskIDs))
	for _, e := range b.edges {
		wDeg[e.Worker]++
		tDeg[e.Task]++
	}
	wPool := make([]int32, 0, len(b.edges))
	tPool := make([]int32, 0, len(b.edges))
	for i, d := range wDeg {
		g.byWorker[i] = wPool[len(wPool) : len(wPool) : len(wPool)+int(d)]
		wPool = wPool[:len(wPool)+int(d)]
	}
	for i, d := range tDeg {
		g.byTask[i] = tPool[len(tPool) : len(tPool) : len(tPool)+int(d)]
		tPool = tPool[:len(tPool)+int(d)]
	}
	for i, e := range b.edges {
		g.byWorker[e.Worker] = append(g.byWorker[e.Worker], int32(i))
		g.byTask[e.Task] = append(g.byTask[e.Task], int32(i))
	}
	return g
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

// WorkerEdges lists the edge indices incident to worker w.
func (g *Graph) WorkerEdges(w int32) []int32 { return g.byWorker[w] }

// TaskEdges lists the edge indices incident to task t.
func (g *Graph) TaskEdges(t int32) []int32 { return g.byTask[t] }

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

package bipartite

import "fmt"

// Matching is a conflict-free subset of a graph's edges — the state x of
// Algorithm 1 — with constant-time membership, add, remove, and weight
// queries. No two selected edges share a vertex; attempts to violate that
// return ErrEdgeConflict so the matcher can run the paper's g(x')=0 branch.
type Matching struct {
	g           *Graph
	selected    []bool
	workerMatch []int32 // selected edge index per worker, or -1
	taskMatch   []int32 // selected edge index per task, or -1
	weight      float64
	size        int
}

// NewMatching returns the empty matching on g.
func NewMatching(g *Graph) *Matching {
	m := &Matching{
		g:           g,
		selected:    make([]bool, g.NumEdges()),
		workerMatch: make([]int32, g.NumWorkers()),
		taskMatch:   make([]int32, g.NumTasks()),
	}
	for i := range m.workerMatch {
		m.workerMatch[i] = -1
	}
	for i := range m.taskMatch {
		m.taskMatch[i] = -1
	}
	return m
}

// Graph returns the graph this matching selects from.
func (m *Matching) Graph() *Graph { return m.g }

// Weight is the objective Σ w_ij·x_ij.
func (m *Matching) Weight() float64 { return m.weight }

// Size is the number of selected edges (matched task count).
func (m *Matching) Size() int { return m.size }

// Selected reports whether edge e is in the matching.
func (m *Matching) Selected(e int32) bool {
	return e >= 0 && int(e) < len(m.selected) && m.selected[e]
}

// WorkerEdge returns the selected edge at worker w, or -1.
func (m *Matching) WorkerEdge(w int32) int32 { return m.workerMatch[w] }

// Add selects edge e. It fails with ErrEdgeConflict if either endpoint is
// already matched (the caller asks Conflicts for the
// conflicting edges, as Algorithm 1's g(x')=0 branch requires) and with
// ErrEdgeRange / ErrDuplicateEdge for invalid or already-selected edges.
func (m *Matching) Add(e int32) error {
	if e < 0 || int(e) >= len(m.selected) {
		return fmt.Errorf("%w: %d", ErrEdgeRange, e)
	}
	if m.selected[e] {
		return fmt.Errorf("%w: %d already selected", ErrDuplicateEdge, e)
	}
	edge := m.g.Edge(int(e))
	if m.workerMatch[edge.Worker] != -1 || m.taskMatch[edge.Task] != -1 {
		return ErrEdgeConflict
	}
	m.selected[e] = true
	m.workerMatch[edge.Worker] = e
	m.taskMatch[edge.Task] = e
	m.weight += edge.Weight
	m.size++
	return nil
}

// Remove deselects edge e.
func (m *Matching) Remove(e int32) error {
	if e < 0 || int(e) >= len(m.selected) {
		return fmt.Errorf("%w: %d", ErrEdgeRange, e)
	}
	if !m.selected[e] {
		return fmt.Errorf("%w: %d", ErrNotSelected, e)
	}
	edge := m.g.Edge(int(e))
	m.selected[e] = false
	m.workerMatch[edge.Worker] = -1
	m.taskMatch[edge.Task] = -1
	m.weight -= edge.Weight
	m.size--
	return nil
}

// Conflicts returns the selected edges that share an endpoint with edge e
// in out[:n]: at most two, the one at the worker first, then the one at the
// task. A selected e conflicts only with itself and yields n = 0. The array
// result keeps Algorithm 1's cycle free of allocation.
func (m *Matching) Conflicts(e int32) (out [2]int32, n int) {
	edge := m.g.Edge(int(e))
	if we := m.workerMatch[edge.Worker]; we != -1 && we != e {
		out[n] = we
		n++
	}
	if te := m.taskMatch[edge.Task]; te != -1 && te != e {
		out[n] = te
		n++
	}
	return out, n
}

// Pairs lists the selected edges.
func (m *Matching) Pairs() []Edge {
	out := make([]Edge, 0, m.size)
	for e, sel := range m.selected {
		if sel {
			out = append(out, m.g.Edge(e))
		}
	}
	return out
}

// Validate recomputes the matching invariants from scratch and reports the
// first violation: selected edges sharing a vertex, inconsistent indices, or
// drifted weight/size accounting. Property tests and the matchers' own
// debug assertions use it.
func (m *Matching) Validate() error {
	var weight float64
	size := 0
	workerSeen := make([]int32, m.g.NumWorkers())
	taskSeen := make([]int32, m.g.NumTasks())
	for i := range workerSeen {
		workerSeen[i] = -1
	}
	for i := range taskSeen {
		taskSeen[i] = -1
	}
	for e, sel := range m.selected {
		if !sel {
			continue
		}
		edge := m.g.Edge(e)
		if prev := workerSeen[edge.Worker]; prev != -1 {
			return fmt.Errorf("bipartite: worker %d in edges %d and %d", edge.Worker, prev, e)
		}
		if prev := taskSeen[edge.Task]; prev != -1 {
			return fmt.Errorf("bipartite: task %d in edges %d and %d", edge.Task, prev, e)
		}
		workerSeen[edge.Worker] = int32(e)
		taskSeen[edge.Task] = int32(e)
		weight += edge.Weight
		size++
	}
	for w, want := range workerSeen {
		if m.workerMatch[w] != want {
			return fmt.Errorf("bipartite: workerMatch[%d] = %d, want %d", w, m.workerMatch[w], want)
		}
	}
	for t, want := range taskSeen {
		if m.taskMatch[t] != want {
			return fmt.Errorf("bipartite: taskMatch[%d] = %d, want %d", t, m.taskMatch[t], want)
		}
	}
	if size != m.size {
		return fmt.Errorf("bipartite: size %d, recomputed %d", m.size, size)
	}
	if diff := m.weight - weight; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("bipartite: weight %v, recomputed %v", m.weight, weight)
	}
	return nil
}

// Assignments maps each matched task ID to its worker ID — the result the
// scheduling component hands to the dispatcher.
func (m *Matching) Assignments() map[string]string {
	out := make(map[string]string, m.size)
	for _, e := range m.Pairs() {
		out[m.g.TaskID(e.Task)] = m.g.WorkerID(e.Worker)
	}
	return out
}

package main

import (
	"fmt"
	"strings"
	"sync"

	"react/internal/region"
)

// Tree is a hierarchical, load-adaptive spatial decomposition: a quadtree
// whose leaves are the active regions. When a leaf's load (registered
// workers plus open tasks) exceeds MaxLoad it is split into four children,
// which is the paper's proposed fix for overloaded region servers: "split
// the regions so that each of the servers would contain sufficient workers
// and tasks without being overloaded" (§V.D). Tiers of the tree correspond
// to the multi-granularity levels of §III.A, from local areas at the lowest
// tier up to the whole network area at the root.
//
// Tree is safe for concurrent use.
type Tree struct {
	mu      sync.RWMutex
	root    *node
	maxLoad int
	maxTier int
	splits  int
}

type node struct {
	id       string
	bounds   region.Rect
	tier     int
	load     int
	children *[4]*node // nil for leaves
}

// NewTree builds a tree covering bounds whose leaves split when their load
// exceeds maxLoad, down to at most maxTier levels below the root (a guard
// against splitting into uselessly tiny regions). maxLoad must be positive;
// maxTier of 0 disables splitting.
func NewTree(bounds region.Rect, maxLoad, maxTier int) (*Tree, error) {
	if !bounds.Valid() {
		return nil, fmt.Errorf("tree: invalid bounds %v", bounds)
	}
	if maxLoad < 1 {
		return nil, fmt.Errorf("tree: maxLoad must be positive, got %d", maxLoad)
	}
	if maxTier < 0 {
		return nil, fmt.Errorf("tree: maxTier must be non-negative, got %d", maxTier)
	}
	return &Tree{
		root:    &node{id: "root", bounds: bounds, tier: 0},
		maxLoad: maxLoad,
		maxTier: maxTier,
	}, nil
}

// Locate returns the ID of the leaf region containing p. Out-of-bounds
// points clamp into the root area first.
func (t *Tree) Locate(p region.Point) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.leaf(t.clamp(p)).id
}

// Add registers one unit of load (a worker arrival or task submission) at p
// and returns the leaf region it landed in. If the leaf then exceeds the
// load bound it is split and the ID of the new, smaller leaf that would now
// contain p is returned alongside; callers use the returned ID for routing.
func (t *Tree) Add(p region.Point) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	p = t.clamp(p)
	n := t.leaf(p)
	n.load++
	if n.load > t.maxLoad && n.tier < t.maxTier {
		t.split(n)
		n = t.leaf(p)
	}
	return n.id
}

// Remove unregisters one unit of load at p (worker departure or task
// completion). Load never goes below zero. It returns the leaf region ID.
func (t *Tree) Remove(p region.Point) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.leaf(t.clamp(p))
	if n.load > 0 {
		n.load--
	}
	return n.id
}

// Load reports the load of the leaf containing p.
func (t *Tree) Load(p region.Point) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.leaf(t.clamp(p)).load
}

// Splits reports how many region splits have occurred.
func (t *Tree) Splits() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.splits
}

// Leaves returns every active region (leaf) with its extent, depth-first.
func (t *Tree) Leaves() []region.NamedRect {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []region.NamedRect
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			out = append(out, region.NamedRect{ID: n.id, Bounds: n.bounds})
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// LoadsByTier aggregates leaf loads per tree depth — the paper's
// multi-granularity view (§III.A: "several tiers at different levels of
// granularity, ranging from small local areas at the lowest tier, to the
// entire network area at the highest tier"), used by operators to see where
// the decomposition has had to go fine-grained.
func (t *Tree) LoadsByTier() map[int]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := map[int]int{}
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			out[n.tier] += n.load
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Tier reports the depth of the leaf containing p (root = 0).
func (t *Tree) Tier(p region.Point) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.leaf(t.clamp(p)).tier
}

func (t *Tree) clamp(p region.Point) region.Point {
	b := t.root.bounds
	eps := 1e-9
	if p.Lat < b.MinLat {
		p.Lat = b.MinLat
	}
	if p.Lat >= b.MaxLat {
		p.Lat = b.MaxLat - eps
	}
	if p.Lon < b.MinLon {
		p.Lon = b.MinLon
	}
	if p.Lon >= b.MaxLon {
		p.Lon = b.MaxLon - eps
	}
	return p
}

func (t *Tree) leaf(p region.Point) *node {
	n := t.root
	for n.children != nil {
		next := n
		for _, c := range n.children {
			if c.bounds.Contains(p) {
				next = c
				break
			}
		}
		if next == n {
			// Floating-point edge: fall into the last quadrant.
			next = n.children[3]
		}
		n = next
	}
	return n
}

// quadrants splits r into four equal sub-rectangles (row-major from the
// min corner). Together they tile r exactly.
func quadrants(r region.Rect) [4]region.Rect {
	c := r.Center()
	return [4]region.Rect{
		{MinLat: r.MinLat, MinLon: r.MinLon, MaxLat: c.Lat, MaxLon: c.Lon},
		{MinLat: r.MinLat, MinLon: c.Lon, MaxLat: c.Lat, MaxLon: r.MaxLon},
		{MinLat: c.Lat, MinLon: r.MinLon, MaxLat: r.MaxLat, MaxLon: c.Lon},
		{MinLat: c.Lat, MinLon: c.Lon, MaxLat: r.MaxLat, MaxLon: r.MaxLon},
	}
}

// split divides a leaf into four children and distributes its load evenly
// among them — the best estimate available without re-resolving every
// registered point; callers re-Add on their next touch, converging the
// counts.
func (t *Tree) split(n *node) {
	quads := quadrants(n.bounds)
	var children [4]*node
	per := n.load / 4
	rem := n.load % 4
	for i := range children {
		load := per
		if i < rem {
			load++
		}
		children[i] = &node{
			id:     fmt.Sprintf("%s/q%d", n.id, i),
			bounds: quads[i],
			tier:   n.tier + 1,
			load:   load,
		}
	}
	n.children = &children
	n.load = 0
	t.splits++
}

// String renders the tree for diagnostics.
func (t *Tree) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	var walk func(n *node)
	walk = func(n *node) {
		fmt.Fprintf(&b, "%s%s load=%d %v\n", strings.Repeat("  ", n.tier), n.id, n.load, n.bounds)
		if n.children != nil {
			for _, c := range n.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return b.String()
}

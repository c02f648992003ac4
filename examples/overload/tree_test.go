package main

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"react/internal/region"
)

var athens = region.Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.2, MaxLon: 24.0}

func TestNewTreeValidates(t *testing.T) {
	if _, err := NewTree(region.Rect{}, 10, 3); err == nil {
		t.Fatal("invalid bounds accepted")
	}
	if _, err := NewTree(athens, 0, 3); err == nil {
		t.Fatal("zero maxLoad accepted")
	}
	if _, err := NewTree(athens, 10, -1); err == nil {
		t.Fatal("negative maxTier accepted")
	}
}

func TestTreeSingleRegionUntilOverload(t *testing.T) {
	tr, err := NewTree(athens, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if id := tr.Add(athens.RandomPoint(rng)); id != "root" {
			t.Fatalf("add %d landed in %q before overload", i, id)
		}
	}
	if tr.Splits() != 0 {
		t.Fatalf("split happened below the load bound")
	}
	// The 6th point pushes load over the bound and triggers a split.
	id := tr.Add(athens.RandomPoint(rng))
	if tr.Splits() != 1 {
		t.Fatalf("Splits() = %d after overload, want 1", tr.Splits())
	}
	if !strings.HasPrefix(id, "root/q") {
		t.Fatalf("post-split Add returned %q, want a child region", id)
	}
	if got := len(tr.Leaves()); got != 4 {
		t.Fatalf("Leaves() = %d regions after one split, want 4", got)
	}
}

func TestTreeMaxTierStopsSplitting(t *testing.T) {
	tr, err := NewTree(athens, 1, 0) // splitting disabled
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		tr.Add(athens.RandomPoint(rng))
	}
	if tr.Splits() != 0 {
		t.Fatal("maxTier=0 tree still split")
	}
	if got := tr.Load(athens.Center()); got != 100 {
		t.Fatalf("root load = %d, want 100", got)
	}
}

func TestTreeDeepSplitKeepsTiers(t *testing.T) {
	tr, err := NewTree(athens, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer a single spot: the containing leaf keeps splitting until the
	// tier cap, and all load concentrates down the one branch.
	p := region.Point{Lat: 37.95, Lon: 23.72}
	for i := 0; i < 200; i++ {
		tr.Add(p)
	}
	if tier := tr.Tier(p); tier != 8 {
		t.Fatalf("Tier = %d, want max 8", tier)
	}
	// Load must be conserved overall.
	total := 0
	for _, leaf := range tr.Leaves() {
		total += tr.Load(leaf.Bounds.Center())
	}
	if total != 200 {
		t.Fatalf("total load across leaves = %d, want 200", total)
	}
}

func TestTreeLeavesTileArea(t *testing.T) {
	tr, err := NewTree(athens, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		tr.Add(athens.RandomPoint(rng))
	}
	// Every point belongs to exactly one leaf.
	for i := 0; i < 2000; i++ {
		p := athens.RandomPoint(rng)
		hits := 0
		var hit string
		for _, leaf := range tr.Leaves() {
			if leaf.Bounds.Contains(p) {
				hits++
				hit = leaf.ID
			}
		}
		if hits != 1 {
			t.Fatalf("point %v in %d leaves", p, hits)
		}
		if got := tr.Locate(p); got != hit {
			t.Fatalf("Locate(%v) = %q but containment says %q", p, got, hit)
		}
	}
}

func TestTreeRemoveNeverNegative(t *testing.T) {
	tr, err := NewTree(athens, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := athens.Center()
	tr.Remove(p)
	if got := tr.Load(p); got != 0 {
		t.Fatalf("load after spurious remove = %d", got)
	}
	tr.Add(p)
	tr.Remove(p)
	if got := tr.Load(p); got != 0 {
		t.Fatalf("load after add+remove = %d", got)
	}
}

func TestTreeOutOfBoundsClamped(t *testing.T) {
	tr, err := NewTree(athens, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := tr.Add(region.Point{Lat: -89, Lon: -179})
	if id == "" {
		t.Fatal("out-of-bounds add returned empty region")
	}
	if got := tr.Locate(region.Point{Lat: 89, Lon: 179}); got == "" {
		t.Fatal("out-of-bounds locate returned empty region")
	}
}

func TestTreeConcurrentUse(t *testing.T) {
	tr, err := NewTree(athens, 50, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				p := athens.RandomPoint(rng)
				tr.Add(p)
				tr.Locate(p)
				if i%3 == 0 {
					tr.Remove(p)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// Sanity: structure is still a valid tiling.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		p := athens.RandomPoint(rng)
		hits := 0
		for _, leaf := range tr.Leaves() {
			if leaf.Bounds.Contains(p) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("after concurrent churn point %v in %d leaves", p, hits)
		}
	}
}

func TestTreeStringContainsRoot(t *testing.T) {
	tr, err := NewTree(athens, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.String(); !strings.Contains(s, "root") {
		t.Fatalf("String() = %q", s)
	}
}

func TestLoadsByTier(t *testing.T) {
	tr, err := NewTree(athens, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// No load: one tier-0 leaf with zero load.
	if got := tr.LoadsByTier(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty tree tiers = %v", got)
	}
	// Hammer one spot past the bound: deeper tiers appear, and the total
	// across tiers equals the load inserted.
	p := region.Point{Lat: 37.95, Lon: 23.72}
	for i := 0; i < 40; i++ {
		tr.Add(p)
	}
	tiers := tr.LoadsByTier()
	total := 0
	deepest := 0
	for tier, load := range tiers {
		total += load
		if tier > deepest {
			deepest = tier
		}
	}
	if total != 40 {
		t.Fatalf("tier loads sum to %d, want 40 (%v)", total, tiers)
	}
	if deepest == 0 {
		t.Fatalf("no splits despite overload: %v", tiers)
	}
}

func TestQuadrantsTileExactly(t *testing.T) {
	r := athens
	quads := quadrants(r)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p := r.RandomPoint(rng)
		hits := 0
		for _, q := range quads {
			if q.Contains(p) {
				hits++
			}
		}
		// A point on an internal boundary belongs to exactly one quadrant
		// thanks to the half-open convention.
		if hits != 1 {
			t.Fatalf("point %v in %d quadrants", p, hits)
		}
	}
	// The shared center belongs to exactly the SE quadrant.
	c := r.Center()
	hits := 0
	for _, q := range quads {
		if q.Contains(c) {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("center in %d quadrants, want 1", hits)
	}
}

package region

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// athens is the rough bounding box the experiments use; the paper's case
// study asked workers about traffic in Athens-area road segments.
var athens = Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.2, MaxLon: 24.0}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p  Point
		ok bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.ok {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.ok)
		}
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// Athens (37.9838, 23.7275) to Thessaloniki (40.6401, 22.9444) ≈ 300 km.
	ath := Point{37.9838, 23.7275}
	thes := Point{40.6401, 22.9444}
	d := ath.DistanceKm(thes)
	if d < 290 || d > 310 {
		t.Fatalf("Athens-Thessaloniki = %.1f km, want ≈300", d)
	}
	// Symmetry and identity.
	if got := thes.DistanceKm(ath); math.Abs(got-d) > 1e-9 {
		t.Fatalf("distance not symmetric: %v vs %v", got, d)
	}
	if got := ath.DistanceKm(ath); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestHaversineOneDegreeLat(t *testing.T) {
	// One degree of latitude ≈ 111.2 km anywhere.
	a := Point{10, 50}
	b := Point{11, 50}
	d := a.DistanceKm(b)
	if math.Abs(d-111.2) > 1 {
		t.Fatalf("1° latitude = %v km, want ≈111.2", d)
	}
}

func TestQuickHaversineMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(a1, o1, a2, o2 uint16) bool {
		p := Point{float64(a1%180) - 90, float64(o1%360) - 180}
		q := Point{float64(a2%180) - 90, float64(o2%360) - 180}
		d := p.DistanceKm(q)
		if d < 0 || math.IsNaN(d) {
			return false
		}
		if d > math.Pi*EarthRadiusKm+1e-6 { // half circumference bound
			return false
		}
		return math.Abs(p.DistanceKm(q)-q.DistanceKm(p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(Point{0, 0}) {
		t.Fatal("min corner should be inside")
	}
	if r.Contains(Point{10, 5}) || r.Contains(Point{5, 10}) {
		t.Fatal("max edges should be outside (half-open)")
	}
	if !r.Contains(r.Center()) {
		t.Fatal("center should be inside")
	}
}

func TestRandomPointStaysInside(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		p := athens.RandomPoint(rng)
		if !athens.Contains(p) {
			t.Fatalf("random point %v escaped %v", p, athens)
		}
	}
}

func TestNewGridValidates(t *testing.T) {
	if _, err := NewGrid(Rect{}, 2, 2); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
	if _, err := NewGrid(athens, 0, 3); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewGrid(athens, 3, -1); err == nil {
		t.Fatal("negative cols accepted")
	}
}

func TestGridLocateAndCells(t *testing.T) {
	g, err := NewGrid(Rect{0, 0, 4, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    Point
		want string
	}{
		{Point{0.5, 0.5}, "r0c0"},
		{Point{0.5, 3.5}, "r0c1"},
		{Point{3.5, 0.5}, "r1c0"},
		{Point{3.5, 3.5}, "r1c1"},
		// Out-of-bounds clamps to the nearest edge cell.
		{Point{-5, -5}, "r0c0"},
		{Point{9, 9}, "r1c1"},
	}
	for _, c := range cases {
		if got := g.Locate(c.p); got != c.want {
			t.Errorf("Locate(%v) = %q, want %q", c.p, got, c.want)
		}
	}
	if got := len(g.Regions()); got != 4 {
		t.Fatalf("Regions() returned %d entries, want 4", got)
	}
}

func TestGridCellsPartitionArea(t *testing.T) {
	g, err := NewGrid(athens, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		p := athens.RandomPoint(rng)
		hits := 0
		for _, nr := range g.Regions() {
			if nr.Bounds.Contains(p) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("point %v covered by %d cells", p, hits)
		}
	}
}

func TestQuickGridLocateConsistentWithCell(t *testing.T) {
	g, err := NewGrid(athens, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	f := func(seed uint32) bool {
		p := athens.RandomPoint(rand.New(rand.NewSource(int64(seed))))
		id := g.Locate(p)
		for _, nr := range g.Regions() {
			if nr.Bounds.Contains(p) {
				return nr.ID == id
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

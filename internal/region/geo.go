// Package region implements REACT's spatial decomposition (§III.A): the
// geographic area is divided into non-overlapping regions, each owned by one
// REACT server that matches the tasks and workers located inside it. The
// package provides geographic primitives (points, rectangles, haversine
// distance), a flat grid partition, and a hierarchical quadtree that splits
// overloaded regions — the paper's future-work remedy for servers that can
// no longer sustain the assignment rate (§V.D, §VII).
package region

import (
	"fmt"
	"math"
	"math/rand"
)

// EarthRadiusKm is the mean Earth radius used by the haversine formula.
const EarthRadiusKm = 6371.0

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64 // latitude, −90..90
	Lon float64 // longitude, −180..180
}

// Valid reports whether the coordinate lies in the legal range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// DistanceKm is the great-circle (haversine) distance to q in kilometres.
// The distance-based weight function of §IV.A uses it to prefer workers
// physically near a task's location.
func (p Point) DistanceKm(q Point) float64 {
	const rad = math.Pi / 180
	lat1, lat2 := p.Lat*rad, q.Lat*rad
	dLat := (q.Lat - p.Lat) * rad
	dLon := (q.Lon - p.Lon) * rad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

func (p Point) String() string { return fmt.Sprintf("(%.4f,%.4f)", p.Lat, p.Lon) }

// Rect is an axis-aligned geographic rectangle. Min bounds are inclusive;
// max bounds are exclusive except on the outermost edge of a partition,
// which keeps sibling regions non-overlapping while covering the whole area.
type Rect struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// Valid reports whether the rectangle is non-degenerate and within range.
func (r Rect) Valid() bool {
	return r.MinLat < r.MaxLat && r.MinLon < r.MaxLon &&
		Point{r.MinLat, r.MinLon}.Valid() && Point{r.MaxLat, r.MaxLon}.Valid()
}

// Contains reports whether p lies inside r (min-inclusive, max-exclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat < r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon < r.MaxLon
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// RandomPoint draws a uniform point inside r.
func (r Rect) RandomPoint(rng *rand.Rand) Point {
	return Point{
		Lat: r.MinLat + rng.Float64()*(r.MaxLat-r.MinLat),
		Lon: r.MinLon + rng.Float64()*(r.MaxLon-r.MinLon),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.4f,%.4f → %.4f,%.4f]", r.MinLat, r.MinLon, r.MaxLat, r.MaxLon)
}

// Grid partitions an area into rows×cols equal regions, the static
// decomposition of §III.A ("with respect to the size of the geographic
// area"). Region IDs are "r<row>c<col>".
type Grid struct {
	Bounds     Rect
	Rows, Cols int
}

// NewGrid validates and constructs a grid partition.
func NewGrid(bounds Rect, rows, cols int) (*Grid, error) {
	if !bounds.Valid() {
		return nil, fmt.Errorf("region: invalid bounds %v", bounds)
	}
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("region: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	return &Grid{Bounds: bounds, Rows: rows, Cols: cols}, nil
}

// Cell returns the rectangle of the (row, col) region.
func (g *Grid) Cell(row, col int) Rect {
	dLat := (g.Bounds.MaxLat - g.Bounds.MinLat) / float64(g.Rows)
	dLon := (g.Bounds.MaxLon - g.Bounds.MinLon) / float64(g.Cols)
	return Rect{
		MinLat: g.Bounds.MinLat + float64(row)*dLat,
		MinLon: g.Bounds.MinLon + float64(col)*dLon,
		MaxLat: g.Bounds.MinLat + float64(row+1)*dLat,
		MaxLon: g.Bounds.MinLon + float64(col+1)*dLon,
	}
}

// Locate maps a point to its region ID. Points outside the grid clamp to
// the nearest edge cell, so a worker just over the boundary still lands in a
// server rather than nowhere.
func (g *Grid) Locate(p Point) string {
	row, col := g.locate(p)
	return fmt.Sprintf("r%dc%d", row, col)
}

func (g *Grid) locate(p Point) (row, col int) {
	dLat := (g.Bounds.MaxLat - g.Bounds.MinLat) / float64(g.Rows)
	dLon := (g.Bounds.MaxLon - g.Bounds.MinLon) / float64(g.Cols)
	row = int((p.Lat - g.Bounds.MinLat) / dLat)
	col = int((p.Lon - g.Bounds.MinLon) / dLon)
	row = min(max(row, 0), g.Rows-1)
	col = min(max(col, 0), g.Cols-1)
	return row, col
}

// Regions enumerates all region IDs with their rectangles in row-major
// order.
func (g *Grid) Regions() []NamedRect {
	out := make([]NamedRect, 0, g.Rows*g.Cols)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			out = append(out, NamedRect{ID: fmt.Sprintf("r%dc%d", r, c), Bounds: g.Cell(r, c)})
		}
	}
	return out
}

// NamedRect pairs a region identifier with its geographic extent.
type NamedRect struct {
	ID     string
	Bounds Rect
}

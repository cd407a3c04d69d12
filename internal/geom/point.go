// Package geom provides the d-dimensional geometric primitives used
// throughout DOD: points, hyper-rectangles, distance functions, r-ball
// volumes, and uniform grids.
//
// All structures are plain values with no hidden state so they can be
// serialized cheaply by internal/codec and shuffled by the MapReduce engine.
package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a d-dimensional data point. ID identifies the point across the
// distributed computation (a point is replicated into supporting areas, and
// outlier reports refer to IDs).
type Point struct {
	ID     uint64
	Coords []float64
}

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p.Coords) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	c := make([]float64, len(p.Coords))
	copy(c, p.Coords)
	return Point{ID: p.ID, Coords: c}
}

// Equal reports whether p and q have the same ID and coordinates.
func (p Point) Equal(q Point) bool {
	if p.ID != q.ID || len(p.Coords) != len(q.Coords) {
		return false
	}
	for i := range p.Coords {
		if p.Coords[i] != q.Coords[i] {
			return false
		}
	}
	return true
}

// String renders the point as "id:(x1,x2,...)".
func (p Point) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:(", p.ID)
	for i, v := range p.Coords {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Dist returns the Euclidean distance between p and q.
// It panics if the dimensionalities differ.
func Dist(p, q Point) float64 {
	return math.Sqrt(Dist2(p, q))
}

// Dist2 returns the squared Euclidean distance between p and q. Squared
// distances avoid the sqrt in the hot neighbor-test loop.
func Dist2(p, q Point) float64 {
	if len(p.Coords) != len(q.Coords) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p.Coords), len(q.Coords)))
	}
	var s float64
	for i := range p.Coords {
		d := p.Coords[i] - q.Coords[i]
		s += d * d
	}
	return s
}

// WithinDist reports whether dist(p, q) <= r without computing a sqrt.
func WithinDist(p, q Point, r float64) bool {
	return Dist2(p, q) <= r*r
}

// Bounds returns the minimal bounding rectangle of the given points.
// It panics on an empty slice.
func Bounds(points []Point) Rect {
	if len(points) == 0 {
		panic("geom: Bounds of empty point set")
	}
	d := points[0].Dim()
	min := make([]float64, d)
	max := make([]float64, d)
	copy(min, points[0].Coords)
	copy(max, points[0].Coords)
	for _, p := range points[1:] {
		for i := 0; i < d; i++ {
			if p.Coords[i] < min[i] {
				min[i] = p.Coords[i]
			}
			if p.Coords[i] > max[i] {
				max[i] = p.Coords[i]
			}
		}
	}
	return Rect{Min: min, Max: max}
}

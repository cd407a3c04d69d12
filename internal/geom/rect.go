package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Rect is a d-dimensional axis-aligned hyper-rectangle [Min, Max]. Grid
// cells, supporting areas, partitions, mini buckets, and AF-tree bounding
// boxes are all Rects. The rectangle is closed on both ends; partition
// planners that need half-open tiling resolve ties by cell index instead.
type Rect struct {
	Min, Max []float64
}

// NewRect builds a Rect, panicking if the bounds are malformed.
func NewRect(min, max []float64) Rect {
	if len(min) != len(max) {
		panic("geom: NewRect dimension mismatch")
	}
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("geom: NewRect inverted bounds in dim %d: %g > %g", i, min[i], max[i]))
		}
	}
	return Rect{Min: min, Max: max}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	min := make([]float64, len(r.Min))
	max := make([]float64, len(r.Max))
	copy(min, r.Min)
	copy(max, r.Max)
	return Rect{Min: min, Max: max}
}

// Contains reports whether point p lies inside r (inclusive of boundaries).
func (r Rect) Contains(p Point) bool {
	for i := range r.Min {
		if p.Coords[i] < r.Min[i] || p.Coords[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether r and s intersect (touching boundaries count).
func (r Rect) Overlaps(s Rect) bool {
	for i := range r.Min {
		if r.Max[i] < s.Min[i] || s.Max[i] < r.Min[i] {
			return false
		}
	}
	return true
}

// Expand returns r grown by delta on every side in every dimension. It is
// the supporting-area construction of Def. 3.3 (with delta = the distance
// threshold).
func (r Rect) Expand(delta float64) Rect {
	min := make([]float64, len(r.Min))
	max := make([]float64, len(r.Max))
	for i := range r.Min {
		min[i] = r.Min[i] - delta
		max[i] = r.Max[i] + delta
	}
	return Rect{Min: min, Max: max}
}

// Union returns the minimal bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	min := make([]float64, len(r.Min))
	max := make([]float64, len(r.Max))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], s.Min[i])
		max[i] = math.Max(r.Max[i], s.Max[i])
	}
	return Rect{Min: min, Max: max}
}

// Area returns the d-dimensional volume of r. A degenerate rectangle
// (zero extent in some dimension) has zero area; callers that use area as a
// density denominator should use AreaEps instead.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// AreaEps returns the volume of r treating any extent smaller than eps as
// eps, so the result is strictly positive. Density computations use it to
// avoid dividing by zero for degenerate clusters.
func (r Rect) AreaEps(eps float64) float64 {
	a := 1.0
	for i := range r.Min {
		e := r.Max[i] - r.Min[i]
		if e < eps {
			e = eps
		}
		a *= e
	}
	return a
}

// Enlargement returns the increase in area required for r to include s.
// Used by the AF-tree insert path ("least enlargement" parent choice).
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Center returns the center point of r (with a zero ID).
func (r Rect) Center() Point {
	c := make([]float64, len(r.Min))
	for i := range r.Min {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return Point{Coords: c}
}

// Clamp returns p with every coordinate clamped into r. Partition lookup
// clamps out-of-domain points so each point maps to exactly one partition.
// A p already inside r is returned as is, so the result may alias p's
// coordinates; only a p outside r is copied.
func (r Rect) Clamp(p Point) Point {
	if r.Contains(p) {
		return p
	}
	c := make([]float64, len(p.Coords))
	for i := range p.Coords {
		v := p.Coords[i]
		if v < r.Min[i] {
			v = r.Min[i]
		}
		if v > r.Max[i] {
			v = r.Max[i]
		}
		c[i] = v
	}
	return Point{ID: p.ID, Coords: c}
}

// UnionIsRectangular reports whether r ∪ s is itself a rectangle, i.e. the
// two rectangles have identical extents in d−1 dimensions and abut exactly
// in the remaining one (Def. 5.3 in the paper).
func (r Rect) UnionIsRectangular(s Rect) bool {
	mismatch := -1
	for i := range r.Min {
		if r.Min[i] == s.Min[i] && r.Max[i] == s.Max[i] {
			continue
		}
		if mismatch >= 0 {
			return false // differs in more than one dimension
		}
		mismatch = i
	}
	if mismatch < 0 {
		return false // identical rectangles do not abut
	}
	i := mismatch
	return r.Max[i] == s.Min[i] || s.Max[i] == r.Min[i]
}

// Equal reports exact equality of bounds.
func (r Rect) Equal(s Rect) bool {
	if len(r.Min) != len(s.Min) {
		return false
	}
	for i := range r.Min {
		if r.Min[i] != s.Min[i] || r.Max[i] != s.Max[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle as "[x1,y1]-[x2,y2]".
func (r Rect) String() string {
	var b strings.Builder
	writeVec := func(v []float64) {
		b.WriteByte('[')
		for i, x := range v {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		}
		b.WriteByte(']')
	}
	writeVec(r.Min)
	b.WriteByte('-')
	writeVec(r.Max)
	return b.String()
}

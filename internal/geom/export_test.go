package geom

import "slices"

// Adjacent reports whether r and s touch without overlapping interiors:
// they share a boundary along exactly the dimensions where one's Max equals
// the other's Min, and overlap in every other dimension.
func (r Rect) Adjacent(s Rect) bool {
	touching := false
	for i := range r.Min {
		if r.Max[i] < s.Min[i] || s.Max[i] < r.Min[i] {
			return false // gap in dimension i: disjoint, not adjacent
		}
		if r.Max[i] == s.Min[i] || s.Max[i] == r.Min[i] {
			touching = true
		}
	}
	return touching
}

// Block calls fn with the ordinal of every cell within Chebyshev distance
// radius of the cell holding the coordinate row q, clipped to the grid, in
// row-major order: the per-cell walk the row walks are held to.
func (g *Grid) Block(od *Odometer, q []float64, radius int, fn func(ord int)) {
	g.block(od, q, radius)
	g.walk(od, fn)
}

// Box is Block over the cells Within searches for a point within dist of
// q.
func (g *Grid) Box(od *Odometer, q []float64, dist float64, fn func(ord int)) {
	g.box(od, q, dist)
	g.walk(od, fn)
}

// slot returns the slot of the cell with ordinal ord, or -1 if the sparse
// layout has no such cell.
func (ix *CellIndex) slot(ord int) int {
	if ix.ords == nil {
		return ord
	}
	if s, ok := slices.BinarySearch(ix.ords, ord); ok {
		return s
	}
	return -1
}

// Members returns the point indices in the cell with ordinal ord,
// ascending.
func (ix *CellIndex) Members(ord int) []int32 {
	s := ix.slot(ord)
	if s < 0 {
		return nil
	}
	return ix.Order[ix.bounds[s]:ix.bounds[s+1]]
}

package geom

import "math"

// CellIndex is a fixed-radius neighbor index: the points bucketed into the
// cells of a NewGridExactWidth grid over their bounds. Within scans the
// Chebyshev ring of ⌈dist/width⌉ cells around a point's cell, which holds
// every point within dist because no cell is narrower than width.
type CellIndex struct {
	grid   *Grid
	width  float64
	cells  map[int][]int
	points []Point
}

// NewCellIndex indexes points (at least one) in cells width wide.
func NewCellIndex(points []Point, width float64) *CellIndex {
	// The map holds one entry per occupied cell: on dense data many points
	// share a cell, so a len(points) hint overallocates buckets.
	ix := &CellIndex{
		grid:   NewGridExactWidth(Bounds(points), width),
		width:  width,
		cells:  make(map[int][]int, max(len(points)/8, 16)),
		points: points,
	}
	for i, p := range points {
		ord := ix.grid.CellOrdinal(p)
		ix.cells[ord] = append(ix.cells[ord], i)
	}
	return ix
}

// Within calls fn with the index of every indexed point within dist of p,
// p itself included, cell by cell in row-major order and in index order
// within a cell.
func (ix *CellIndex) Within(p Point, dist float64, fn func(j int)) {
	ix.grid.Neighborhood(ix.grid.CellCoords(p), int(math.Ceil(dist/ix.width)), func(ord int) {
		for _, j := range ix.cells[ord] {
			if WithinDist(p, ix.points[j], dist) {
				fn(j)
			}
		}
	})
}

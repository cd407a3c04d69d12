package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform d-dimensional grid over a domain rectangle. It is used
// by the Cell-Based detector (cells of diagonal r/2), by the uniSpace
// partitioner (equi-width partitions), and by the DMT mini-bucket histogram.
//
// Cells are indexed either by a per-dimension index vector or by a single
// flattened ordinal in row-major order.
type Grid struct {
	Domain Rect
	Dims   []int     // number of cells per dimension, all >= 1
	width  []float64 // cell width per dimension
	total  int
}

// NewGrid builds a uniform grid over domain with dims[i] cells along
// dimension i. A dimension with zero extent is collapsed to a single cell
// regardless of the requested count, keeping every cell rectangle valid.
func NewGrid(domain Rect, dims []int) *Grid {
	if len(dims) != domain.Dim() {
		panic("geom: NewGrid dims/domain dimension mismatch")
	}
	total := 1
	width := make([]float64, len(dims))
	clamped := append([]int(nil), dims...)
	for i, n := range clamped {
		if n < 1 {
			panic(fmt.Sprintf("geom: NewGrid dims[%d]=%d < 1", i, n))
		}
		extent := domain.Max[i] - domain.Min[i]
		if extent <= 0 {
			n = 1
			clamped[i] = 1
			width[i] = 1 // any positive width; all points map to cell 0
		} else {
			width[i] = extent / float64(n)
		}
		total *= n
	}
	return &Grid{Domain: domain.Clone(), Dims: clamped, width: width, total: total}
}

// NewGridExactWidth builds a grid anchored at domain.Min whose cells are
// exactly `width` wide in every dimension, with as many cells per dimension
// as it takes to hold domain.Max inside the last one — so the grid may
// overshoot domain.Max by up to a cell. It is the package's one width-based
// constructor, and its cells are never narrower than asked: shrinking the
// width until the cells tile the domain would break any caller that derives
// a cell-ring radius from the nominal width — with narrower cells a point at
// distance ≈ r sits one ring further out than ⌈r/width⌉ reaches.
func NewGridExactWidth(domain Rect, width float64) *Grid {
	if width <= 0 {
		panic("geom: NewGridExactWidth requires width > 0")
	}
	g := &Grid{
		Domain: domain.Clone(),
		Dims:   make([]int, domain.Dim()),
		width:  make([]float64, domain.Dim()),
		total:  1,
	}
	for i := range g.Dims {
		n := int((domain.Max[i]-domain.Min[i])/width) + 1
		g.Dims[i] = n
		g.width[i] = width
		g.Domain.Max[i] = domain.Min[i] + float64(n)*width
		g.total *= n
	}
	return g
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.total }

// CellWidth returns the cell width along dimension i.
func (g *Grid) CellWidth(i int) float64 { return g.width[i] }

// Flatten converts per-dimension indices to a row-major ordinal.
func (g *Grid) Flatten(idx []int) int {
	ord := 0
	for i, c := range idx {
		ord = ord*g.Dims[i] + c
	}
	return ord
}

// Unflatten converts a row-major ordinal back to per-dimension indices.
func (g *Grid) Unflatten(ord int) []int {
	idx := make([]int, len(g.Dims))
	for i := len(g.Dims) - 1; i >= 0; i-- {
		idx[i] = ord % g.Dims[i]
		ord /= g.Dims[i]
	}
	return idx
}

// CellOrdinal returns the flattened ordinal of the cell containing p,
// computed inline with no per-call index-slice allocation — it sits inside
// every indexing loop of the Cell-Based detectors and the histogram
// builders.
func (g *Grid) CellOrdinal(p Point) int {
	return g.CellOrdinalCoords(p.Coords)
}

// CellOrdinalCoords is CellOrdinal on a bare coordinate row — the form the
// columnar PointSet hot paths use.
func (g *Grid) CellOrdinalCoords(coords []float64) int {
	ord := 0
	for i, n := range g.Dims {
		ord = ord*n + g.cellOf(i, coords[i])
	}
	return ord
}

// cellOf returns the index along dimension i of the cell holding
// coordinate v. Points on the upper domain boundary go to the last cell and
// out-of-domain points are clamped, so every point maps to exactly one
// cell; NaN maps to cell 0. The clamps compare the cell coordinate as a
// float before converting it, as CoverRows does: Go leaves the conversion
// of a float beyond int's range to the platform, and on amd64 it turns
// 1e300 and +Inf into a negative int.
func (g *Grid) cellOf(i int, v float64) int {
	c := (v - g.Domain.Min[i]) / g.width[i]
	if !(c > 0) { // below the domain's first cell, or NaN
		return 0
	}
	if c >= float64(g.Dims[i]) {
		return g.Dims[i] - 1
	}
	return int(c)
}

// CellRect returns the rectangle of the cell at the given indices.
// Boundaries are computed so that adjacent cells share bit-identical
// coordinates (min of cell c+1 equals max of cell c) and the outermost
// cells land exactly on the domain boundary — the exact-tiling property
// the DSHC rectangular-merge test and partition plans rely on.
func (g *Grid) CellRect(idx []int) Rect {
	min := make([]float64, len(idx))
	max := make([]float64, len(idx))
	for i, c := range idx {
		min[i] = g.Boundary(i, c)
		max[i] = g.Boundary(i, c+1)
	}
	return Rect{Min: min, Max: max}
}

// CellRectInto writes the rectangle of the cell with row-major ordinal
// ord into dst's Min and Max, which must have the grid's dimension: the
// bounds CellRect(Unflatten(ord)) returns, without allocating.
func (g *Grid) CellRectInto(ord int, dst Rect) {
	for i := len(g.Dims) - 1; i >= 0; i-- {
		c := ord % g.Dims[i]
		ord /= g.Dims[i]
		dst.Min[i] = g.Boundary(i, c)
		dst.Max[i] = g.Boundary(i, c+1)
	}
}

// Boundary returns the coordinate of grid line number c (0..Dims[i]) along
// dimension i. Line 0 is the domain minimum and line Dims[i] is exactly the
// domain maximum.
func (g *Grid) Boundary(i, c int) float64 {
	if c <= 0 {
		return g.Domain.Min[i]
	}
	if c >= g.Dims[i] {
		return g.Domain.Max[i]
	}
	return g.Domain.Min[i] + float64(c)*g.width[i]
}

// Odometer is the scratch of one block walk: the block's per-dimension
// bounds, the cell it is centred on, the walk's cursor and a sparse
// CellIndex's search cursor. A walk touches nothing else, so a caller
// holding one Odometer per goroutine walks blocks without allocating while
// the grid, and any index over it, is only read.
type Odometer struct {
	lo, hi, mid, cur []int
	slot             int
}

// NewOdometer returns the scratch for block walks over d-dimensional
// grids.
func NewOdometer(d int) Odometer {
	backing := make([]int, 4*d)
	return Odometer{lo: backing[:d], hi: backing[d : 2*d], mid: backing[2*d : 3*d], cur: backing[3*d:]}
}

// Neighborhood calls fn with the flattened ordinal of every cell within
// Chebyshev distance radius of the cell at idx (including idx itself),
// clipped to the grid, in row-major order.
func (g *Grid) Neighborhood(idx []int, radius int, fn func(ord int)) {
	od := NewOdometer(len(idx))
	for i, n := range g.Dims {
		od.lo[i], od.hi[i] = max(idx[i]-radius, 0), min(idx[i]+radius, n-1)
	}
	g.walk(&od, fn)
}

// block sets od to the cells within Chebyshev distance radius of the cell
// holding the coordinate row q, clipped to the grid, and centres it on that
// cell. The Cell-Based detectors use radius 1 for the L1 block and ⌈2√d⌉
// for the L2 block.
func (g *Grid) block(od *Odometer, q []float64, radius int) {
	for i, n := range g.Dims {
		c := g.cellOf(i, q[i])
		od.mid[i] = c
		od.lo[i], od.hi[i] = max(c-radius, 0), min(c+radius, n-1)
	}
}

// distSlack bounds how far past dist, relatively, a pair that a
// squared-distance test accepts at dist can lie along one axis in exact
// arithmetic. Each difference, square and partial sum rounds by at most
// 2⁻⁵³ relatively, so the excess is under (d+4)·2⁻⁵⁴: below 2⁻⁴⁰ for any
// d under 2¹³.
const distSlack = 0x1p-40

// box sets od to every cell that can hold a point within dist of the
// coordinate row q. Along each dimension it spans from the cell holding
// q - dist to the cell holding q + dist, both pushed out past the rounding
// of the distance test and of the bound itself. Cell lookup is monotone in
// the coordinate, so every point that WithinDist accepts lies in the box,
// however the cell arithmetic rounds near an edge; a Chebyshev ring of
// ⌈dist/width⌉ cells misses a pair at exactly dist whose cell coordinates
// round apart.
func (g *Grid) box(od *Odometer, q []float64, dist float64) {
	reach := dist * (1 + distSlack)
	for i := range g.Dims {
		od.lo[i] = g.cellOf(i, math.Nextafter(q[i]-reach, math.Inf(-1)))
		od.hi[i] = g.cellOf(i, math.Nextafter(q[i]+reach, math.Inf(1)))
	}
}

// CoverRows runs fn over the rows of the block of cells that the points
// of r (closed) land in, as spans does: fn gets each row's cells
// base+a … base+b, in row-major order. Along each dimension the block runs
// from the cell holding r.Min to the cell holding r.Max, found with
// cellOf's arithmetic; cell lookup is monotone in the coordinate, so no
// point of r lands outside the block, however the division rounds. The
// bounds are compared as floats before they are converted, so an infinite
// or far-out bound clips to the edge cell, and NaN takes the whole axis.
func (g *Grid) CoverRows(od *Odometer, r Rect, fn func(base, a, b int)) {
	for i, n := range g.Dims {
		od.lo[i], od.hi[i] = 0, n-1
		if lo := (r.Min[i] - g.Domain.Min[i]) / g.width[i]; lo > 0 {
			od.lo[i] = int(min(lo, float64(n-1)))
		}
		if hi := (r.Max[i] - g.Domain.Min[i]) / g.width[i]; hi < float64(n) {
			od.hi[i] = int(max(hi, 0))
		}
	}
	g.spans(od, fn)
}

// walk calls fn with the ordinal of every cell between od.lo and od.hi,
// in row-major order.
func (g *Grid) walk(od *Odometer, fn func(ord int)) {
	g.spans(od, func(base, a, b int) {
		for c := a; c <= b; c++ {
			fn(base + c)
		}
	})
}

// spans runs the odometer over the rows of the block between od.lo and
// od.hi: for each combination of the leading d−1 indices (the last of them
// turning fastest) it calls fn with the row's cells base+a … base+b, where
// base is the ordinal of the row's cell at last index 0 and a, b are od.lo
// and od.hi's last entries. Along the last axis ordinals are consecutive,
// so the rows give the block's cells in row-major order. On entry to fn,
// od.cur holds the row's leading indices.
func (g *Grid) spans(od *Odometer, fn func(base, a, b int)) {
	last := len(g.Dims) - 1
	a, b := od.lo[last], od.hi[last]
	copy(od.cur[:last], od.lo[:last])
	for {
		base := 0
		for i := 0; i < last; i++ {
			base = base*g.Dims[i] + od.cur[i]
		}
		fn(base*g.Dims[last], a, b)
		i := last - 1
		for ; i >= 0; i-- {
			od.cur[i]++
			if od.cur[i] <= od.hi[i] {
				break
			}
			od.cur[i] = od.lo[i]
		}
		if i < 0 {
			return
		}
	}
}

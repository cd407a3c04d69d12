package geom

import (
	"cmp"
	"slices"
)

// CellIndex is the fixed-radius neighbour index: a point set bucketed into
// the cells of a NewGridExactWidth grid over its bounds. It is Knorr and
// Ng's cell grid, and building it is the linear "scanning and indexing"
// term of Lemma 4.2.
//
// The layout is CSR rather than map-based: one counting sort groups the
// set's point indices by cell ordinal, so a cell's members are a subslice of
// Order, and a block count is a handful of dense array reads. Points are
// scattered in index order, so a cell's members are ascending.
//
// When the grid has vastly more cells than points (high dimensionality or
// a tiny width: a 4-D grid easily exceeds 10⁸ cells for a few thousand
// points), per-ordinal arrays would dwarf the data. The index then keeps
// only the occupied ordinals, sorted and found by binary search, with the
// same member slices.
type CellIndex struct {
	Grid *Grid
	// Order holds the set's point indices grouped by cell, cells in
	// ascending ordinal order and indices ascending within a cell.
	Order []int32

	set *PointSet
	// Slot s spans Order[bounds[s]:bounds[s+1]]. In the dense layout
	// (ords == nil) slot s is ordinal s; in the sparse layout only occupied
	// cells have slots, and slot s is ordinal ords[s].
	bounds []int32
	ords   []int
}

// maxDenseCells bounds the dense layout's per-ordinal array: dense until
// the cell count exceeds 256 cells per point (with a 2²¹ floor so small
// inputs on fine grids stay dense) or an absolute 2²⁵-cell / 128 MiB cap.
func maxDenseCells(n int) int {
	return min(max(256*n, 1<<21), 1<<25)
}

// NewCellIndex indexes set (at least one point) in cells width wide.
func NewCellIndex(set *PointSet, width float64) *CellIndex {
	ix := &CellIndex{Grid: NewGridExactWidth(set.Bounds(), width), set: set}
	n := set.Len()
	ords := make([]int, n)
	for i := range ords {
		ords[i] = ix.Grid.CellOrdinalCoords(set.CoordsAt(i))
	}
	ix.Order = make([]int32, n)

	// The cell count wraps negative when a tiny width yields an
	// astronomically fine grid (the ordinal product overflows int). The
	// sparse layout handles such grids: it only ever touches the wrapped
	// ordinals points hash to, and block walks wrap the same way.
	if nc := ix.Grid.NumCells(); nc > 0 && nc <= maxDenseCells(n) {
		// Dense: counting sort by ordinal. bounds doubles as the fill
		// cursor — each cell's slot advances to the next cell's start — and
		// shifts back one place afterwards.
		ix.bounds = make([]int32, nc+1)
		for _, ord := range ords {
			ix.bounds[ord+1]++
		}
		for o := 1; o <= nc; o++ {
			ix.bounds[o] += ix.bounds[o-1]
		}
		for i, ord := range ords {
			ix.Order[ix.bounds[ord]] = int32(i)
			ix.bounds[ord]++
		}
		copy(ix.bounds[1:], ix.bounds[:nc])
		ix.bounds[0] = 0
		return ix
	}

	// Sparse: sort point indices by (ordinal, index) and extract runs.
	for i := range ix.Order {
		ix.Order[i] = int32(i)
	}
	slices.SortFunc(ix.Order, func(a, b int32) int {
		if c := cmp.Compare(ords[a], ords[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i := 0; i < n; i++ {
		if ord := ords[ix.Order[i]]; i == 0 || ord != ix.ords[len(ix.ords)-1] {
			ix.ords = append(ix.ords, ord)
			ix.bounds = append(ix.bounds, int32(i))
		}
	}
	ix.bounds = append(ix.bounds, int32(n))
	return ix
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

// Cells calls fn with every occupied cell in ascending ordinal order: its
// ordinal and the span Order[lo:hi] of its members.
func (ix *CellIndex) Cells(fn func(ord int, lo, hi int32)) {
	for s := 0; s+1 < len(ix.bounds); s++ {
		lo, hi := ix.bounds[s], ix.bounds[s+1]
		if lo == hi {
			continue
		}
		ord := s
		if ix.ords != nil {
			ord = ix.ords[s]
		}
		fn(ord, lo, hi)
	}
}

// BlockCount returns the number of points in the cells within Chebyshev
// distance radius of the cell holding the coordinate row q, walking od.
func (ix *CellIndex) BlockCount(od *Odometer, q []float64, radius int) int {
	total := 0
	ix.Grid.Block(od, q, radius, func(o int) { total += len(ix.Members(o)) })
	return total
}

// Within calls fn with the index of every point within dist of the
// coordinate row q, walking od over the cells of Grid.Box. Cells come in
// row-major order and indices ascending within a cell; a point at q itself
// is included.
func (ix *CellIndex) Within(od *Odometer, q []float64, dist float64, fn func(j int)) {
	r2 := dist * dist
	ix.Grid.Box(od, q, dist, func(o int) {
		for _, j := range ix.Members(o) {
			if ix.set.Within2Coords(int(j), q, r2) {
				fn(int(j))
			}
		}
	})
}

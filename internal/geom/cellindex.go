package geom

import (
	"cmp"
	"math"
	"slices"
)

// CellIndex is the fixed-radius neighbour index: a point set bucketed into
// the cells of a NewGridExactWidth grid over its bounds. It is Knorr and
// Ng's cell grid, and building it is the linear "scanning and indexing"
// term of Lemma 4.2.
//
// The layout is CSR rather than map-based: one counting sort groups the
// set's point indices by cell ordinal, so a cell's members are a subslice of
// Order. Points are scattered in index order, so a cell's members are
// ascending. Along the last axis a block's cells have consecutive ordinals,
// so every block query walks a row at a time: in the dense layout bounds
// is a prefix sum over ordinals, a row's count is one subtraction and its
// members one subslice of Order. A 2-D L1 block is 3 rows and an L2 block
// 7, where a walk by cells visits 9 and 49.
//
// When the grid has vastly more cells than points (high dimensionality or
// a tiny width: a 4-D grid easily exceeds 10⁸ cells for a few thousand
// points), per-ordinal arrays would dwarf the data. The index then keeps
// only the occupied ordinals, sorted, with the same member slices; a row's
// occupied cells are found by a galloping search from the previous row's.
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
	return newCellIndex(set, width, maxDenseCells(set.Len()))
}

// newCellIndex is NewCellIndex with the dense layout's cell cap given.
func newCellIndex(set *PointSet, width float64, maxDense int) *CellIndex {
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
	if nc := ix.Grid.NumCells(); nc > 0 && nc <= maxDense {
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

// span returns the members of the cells base+a … base+b of one row, in
// order, as one subslice of Order: cells are grouped in ascending ordinal
// order and a span's ordinals are consecutive. The dense layout reads the
// span's ends from bounds, a prefix sum over ordinals. The sparse layout
// gallops through ords to the span's first occupied slot, from od's cursor
// when every slot before the cursor lies below the span, and steps to its
// last: a block's rows ascend, so a search spans the cells between two
// rows, not the whole index.
func (ix *CellIndex) span(od *Odometer, base, a, b int) []int32 {
	lo, hi := base+a, base+b
	if ix.ords == nil {
		return ix.Order[ix.bounds[lo]:ix.bounds[hi+1]]
	}
	ords := ix.ords
	s := od.slot
	if s > 0 && ords[s-1] >= lo {
		s = 0
	}
	if s < len(ords) && ords[s] < lo {
		// Gallop from s, then search the last stride.
		step := 1
		for s+step < len(ords) && ords[s+step] < lo {
			s += step
			step *= 2
		}
		i, _ := slices.BinarySearch(ords[s+1:min(s+step, len(ords))], lo)
		s += 1 + i
	}
	e := s
	for e < len(ords) && ords[e] <= hi {
		e++
	}
	od.slot = e
	return ix.Order[ix.bounds[s]:ix.bounds[e]]
}

// spans walks od's block a row at a time, as Grid.spans does, calling fn
// with spans that span can read. A sparse grid's ordinals may wrap past the
// int range; a row whose ordinals wrap inside it comes in two spans, split
// where they pass math.MaxInt, so each span's ordinals ascend.
func (ix *CellIndex) spans(od *Odometer, fn func(base, a, b int)) {
	if ix.ords == nil {
		ix.Grid.spans(od, fn)
		return
	}
	od.slot = 0
	ix.Grid.spans(od, func(base, a, b int) {
		if base+b < base+a {
			k := a + (math.MaxInt - (base + a))
			fn(base, a, k)
			fn(base, k+1, b)
			return
		}
		fn(base, a, b)
	})
}

// BlockCount returns the number of points in the cells within Chebyshev
// distance radius of the cell holding the coordinate row q, walking od.
func (ix *CellIndex) BlockCount(od *Odometer, q []float64, radius int) int {
	ix.Grid.block(od, q, radius)
	total := 0
	ix.spans(od, func(base, a, b int) { total += len(ix.span(od, base, a, b)) })
	return total
}

// AppendRing appends to dst the members of every cell within Chebyshev
// distance outer of the cell holding the coordinate row q but farther than
// inner from it, walking od, and returns the extended slice. Members come
// in row-major cell order, ascending within a cell. A row whose leading
// indices are within inner of the centre's loses the centre's inner cells
// from its middle; any other row is whole.
func (ix *CellIndex) AppendRing(dst []int32, od *Odometer, q []float64, inner, outer int) []int32 {
	ix.Grid.block(od, q, outer)
	last := len(od.mid) - 1
	c := od.mid[last]
	ix.spans(od, func(base, a, b int) {
		near := true
		for i, x := range od.cur[:last] {
			if x-od.mid[i] > inner || od.mid[i]-x > inner {
				near = false
				break
			}
		}
		if !near {
			dst = append(dst, ix.span(od, base, a, b)...)
			return
		}
		if l := min(b, c-inner-1); a <= l {
			dst = append(dst, ix.span(od, base, a, l)...)
		}
		if r := max(a, c+inner+1); r <= b {
			dst = append(dst, ix.span(od, base, r, b)...)
		}
	})
	return dst
}

// Within calls fn with the index of every point within dist of the
// coordinate row q, walking od over the cells that can hold one. Cells come
// in row-major order and indices ascending within a cell; a point at q
// itself is included.
func (ix *CellIndex) Within(od *Odometer, q []float64, dist float64, fn func(j int)) {
	r2 := dist * dist
	ix.Grid.box(od, q, dist)
	ix.spans(od, func(base, a, b int) {
		for _, j := range ix.span(od, base, a, b) {
			if ix.set.Within2Coords(int(j), q, r2) {
				fn(int(j))
			}
		}
	})
}

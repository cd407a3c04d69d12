package detect

import (
	"math"
	"sort"

	"dod/internal/geom"
)

// CellSide returns the Cell-Based grid cell width for dimensionality d and
// distance threshold r: r/(2√d), making the cell diagonal r/2 (the paper's
// cell area r²/8 in two dimensions).
func CellSide(d int, r float64) float64 {
	return r / (2 * math.Sqrt(float64(d)))
}

// L2Radius returns the Chebyshev cell radius beyond which no point can be a
// neighbor: ⌈2√d⌉ (3 in two dimensions, giving the 49-cell block of
// Lemma 4.2).
func L2Radius(d int) int {
	return int(math.Ceil(2 * math.Sqrt(float64(d))))
}

// cellIndex is the shared grid-construction step of both Cell-Based
// variants: every point hashed into cells of diagonal r/2, with per-cell
// counts. Building it is the linear "scanning and indexing" term of
// Lemma 4.2.
//
// The layout is CSR-style rather than map-based: one counting sort groups
// the point indices of the backing PointSet contiguously by cell ordinal,
// so a cell's membership is a subslice (ptIdx[start[ord]:start[ord+1]])
// and blockCountSc is a handful of dense array reads instead of map probes.
// Because points are scattered in input order, a cell's members are in
// ascending point-index order; with the core points forming the set's
// prefix, a cell's core members are exactly its leading run of indices
// < nCore — no separate core-by-cell structure is needed.
//
// When the grid has vastly more cells than points (high dimensionality or
// tiny r — e.g. a 4D grid easily exceeds 10⁸ cells for a few thousand
// points), dense per-ordinal arrays would dwarf the data; the index then
// falls back to a sorted sparse layout (distinct ordinals + binary search)
// with the same CSR membership slices.
type cellIndex struct {
	grid *geom.Grid
	l2   int

	// ptIdx holds point indices grouped by cell, ascending within a cell.
	ptIdx []int32

	// Dense layout (counts != nil): cell ord occupies
	// ptIdx[start[ord]:start[ord+1]] and holds counts[ord] points.
	start  []int32 // len NumCells+1, prefix sums of counts
	counts []int32 // len NumCells

	// Sparse layout (counts == nil): cells lists the non-empty ordinals in
	// ascending order; cells[i] occupies ptIdx[cellStart[i]:cellStart[i+1]].
	cells     []int
	cellStart []int32
}

// nbScratch is one neighborhood-iteration odometer: the per-dimension
// decomposition of a cell ordinal and the iteration bounds/cursor of a
// Chebyshev block walk. It is the only mutable state a block walk touches,
// so each scan carries one and the index itself is only read.
type nbScratch struct {
	idx, lo, hi, cur []int
}

func newNbScratch(d int) nbScratch {
	backing := make([]int, 4*d)
	return nbScratch{
		idx: backing[0:d],
		lo:  backing[d : 2*d],
		hi:  backing[2*d : 3*d],
		cur: backing[3*d : 4*d],
	}
}

// maxDenseCells bounds the dense layout's per-ordinal arrays: dense until
// the cell count exceeds 256 cells per point (with a 2²¹ floor so small
// inputs on fine grids stay dense) or an absolute 2²⁵-cell / 256 MiB cap.
func maxDenseCells(n int) int {
	limit := 1 << 21
	if 256*n > limit {
		limit = 256 * n
	}
	if limit > 1<<25 {
		limit = 1 << 25
	}
	return limit
}

// cellGrid lays the Cell-Based grid over a point set. Cells are exactly
// CellSide wide: L2Radius bounds how many such cells a neighbor can be away,
// and a grid that shrank its cells to tile the bounds (any partition whose
// extent is not a multiple of CellSide) would put a neighbor at distance ≈ r
// one ring beyond it.
func cellGrid(all *geom.PointSet, r float64) *geom.Grid {
	return geom.NewGridExactWidth(all.Bounds(), CellSide(all.Dim, r))
}

func buildCellIndex(all *geom.PointSet, r float64, stats *Stats) *cellIndex {
	d := all.Dim
	ix := &cellIndex{
		grid: cellGrid(all, r),
		l2:   L2Radius(d),
	}

	n := all.Len()
	nc := ix.grid.NumCells()
	ords := make([]int, n)
	for i := 0; i < n; i++ {
		ords[i] = ix.grid.CellOrdinalCoords(all.Coords[i*d : (i+1)*d])
		stats.PointsIndexed++
	}
	ix.ptIdx = make([]int32, n)

	// nc can wrap negative when a tiny r yields an astronomically fine
	// grid (the ordinal product overflows int); such grids are handled by
	// the sparse layout, which — like the map index it replaced — only
	// ever touches the wrapped ordinals points actually hash to.
	if nc > 0 && nc <= maxDenseCells(n) {
		// Dense: counting sort by ordinal. start doubles as the fill
		// cursor — each cell's slot advances to the next cell's start — and
		// shifts back one place afterwards.
		ix.counts = make([]int32, nc)
		for _, ord := range ords {
			ix.counts[ord]++
		}
		ix.start = make([]int32, nc+1)
		for ord, c := range ix.counts {
			ix.start[ord+1] = ix.start[ord] + c
		}
		for i, ord := range ords {
			ix.ptIdx[ix.start[ord]] = int32(i)
			ix.start[ord]++
		}
		copy(ix.start[1:], ix.start[:nc])
		ix.start[0] = 0
		return ix
	}

	// Sparse: sort point indices by (ordinal, index) and extract runs.
	for i := range ix.ptIdx {
		ix.ptIdx[i] = int32(i)
	}
	sort.Slice(ix.ptIdx, func(a, b int) bool {
		pa, pb := ix.ptIdx[a], ix.ptIdx[b]
		if ords[pa] != ords[pb] {
			return ords[pa] < ords[pb]
		}
		return pa < pb
	})
	for i := 0; i < n; {
		ord := ords[ix.ptIdx[i]]
		j := i
		for j < n && ords[ix.ptIdx[j]] == ord {
			j++
		}
		ix.cells = append(ix.cells, ord)
		ix.cellStart = append(ix.cellStart, int32(i))
		i = j
	}
	ix.cellStart = append(ix.cellStart, int32(n))
	return ix
}

// count returns the number of points in the cell with the given ordinal.
func (ix *cellIndex) count(ord int) int {
	if ix.counts != nil {
		return int(ix.counts[ord])
	}
	c := sort.SearchInts(ix.cells, ord)
	if c == len(ix.cells) || ix.cells[c] != ord {
		return 0
	}
	return int(ix.cellStart[c+1] - ix.cellStart[c])
}

// members returns the point indices of the cell with the given ordinal,
// ascending (core points — set indices < nCore — first).
func (ix *cellIndex) members(ord int) []int32 {
	if ix.counts != nil {
		return ix.ptIdx[ix.start[ord]:ix.start[ord+1]]
	}
	c := sort.SearchInts(ix.cells, ord)
	if c == len(ix.cells) || ix.cells[c] != ord {
		return nil
	}
	return ix.ptIdx[ix.cellStart[c]:ix.cellStart[c+1]]
}

// coreCell is one cell holding at least one core point: its ordinal and the
// span of ptIdx holding its core members (the cell's leading run of
// indices < nCore). Offsets rather than a subslice keep the list free of
// pointers, so the garbage collector never scans it.
type coreCell struct {
	ord    int
	lo, hi int32
}

// coreCells lists every cell holding a core point, in ascending ordinal
// order — the Cell-Based variants' work items. It counts first and fills
// second, so the list is one exact-size allocation.
func (ix *cellIndex) coreCells(nCore int) []coreCell {
	// Both layouts keep cell boundaries as prefix offsets into ptIdx: slot
	// s spans bounds[s]:bounds[s+1] and is ordinal s (dense) or cells[s]
	// (sparse).
	bounds := ix.start
	if ix.counts == nil {
		bounds = ix.cellStart
	}
	isCore := func(s int) bool {
		return bounds[s] < bounds[s+1] && int(ix.ptIdx[bounds[s]]) < nCore
	}
	n := 0
	for s := 0; s+1 < len(bounds); s++ {
		if isCore(s) {
			n++
		}
	}
	cells := make([]coreCell, 0, n)
	for s := 0; s+1 < len(bounds); s++ {
		if !isCore(s) {
			continue
		}
		hi := bounds[s+1]
		for int(ix.ptIdx[hi-1]) >= nCore {
			hi--
		}
		ord := s
		if ix.counts == nil {
			ord = ix.cells[s]
		}
		cells = append(cells, coreCell{ord: ord, lo: bounds[s], hi: hi})
	}
	return cells
}

// forNeighborhoodSc calls fn with the ordinal of every cell within
// Chebyshev distance radius of the cell with ordinal ord (including
// itself), clipped to the grid — the same row-major order as
// geom.Grid.Neighborhood, but iterative over the caller's odometer so
// block walks allocate nothing and the index is only read.
func (ix *cellIndex) forNeighborhoodSc(sc *nbScratch, ord, radius int, fn func(o int)) {
	dims := ix.grid.Dims
	d := len(dims)
	for i := d - 1; i >= 0; i-- {
		sc.idx[i] = ord % dims[i]
		ord /= dims[i]
	}
	for i := 0; i < d; i++ {
		lo := sc.idx[i] - radius
		if lo < 0 {
			lo = 0
		}
		hi := sc.idx[i] + radius
		if hi > dims[i]-1 {
			hi = dims[i] - 1
		}
		sc.lo[i], sc.hi[i], sc.cur[i] = lo, hi, lo
	}
	for {
		o := 0
		for i := 0; i < d; i++ {
			o = o*dims[i] + sc.cur[i]
		}
		fn(o)
		i := d - 1
		for ; i >= 0; i-- {
			sc.cur[i]++
			if sc.cur[i] <= sc.hi[i] {
				break
			}
			sc.cur[i] = sc.lo[i]
		}
		if i < 0 {
			return
		}
	}
}

// blockCountSc sums the point counts of all cells within Chebyshev radius
// of the cell with ordinal ord, walking the caller's odometer.
func (ix *cellIndex) blockCountSc(sc *nbScratch, ord, radius int) int {
	total := 0
	ix.forNeighborhoodSc(sc, ord, radius, func(o int) {
		total += ix.count(o)
	})
	return total
}

// prune applies both variants' whole-cell rules to core cell c: an inlier
// cell (L1 block holds more than k points) is done, an outlier cell (L2
// block holds at most k) reports every core member. It returns the L1
// block count and whether c is undecided ("white") and needs per-point
// work.
func (ix *cellIndex) prune(sc *nbScratch, all *geom.PointSet, c coreCell, k int, t *Result) (cnt1 int, white bool) {
	cnt1 = ix.blockCountSc(sc, c.ord, 1)
	if cnt1-1 >= k {
		t.Stats.CellsPruned++ // inlier cell
		return cnt1, false
	}
	if ix.blockCountSc(sc, c.ord, ix.l2)-1 < k {
		t.Stats.CellsPruned++ // outlier cell
		for _, pi := range ix.ptIdx[c.lo:c.hi] {
			t.OutlierIDs = append(t.OutlierIDs, all.IDs[pi])
		}
		return cnt1, false
	}
	return cnt1, true
}

// cellBasedDetector implements the Cell-Based algorithm exactly as the
// paper characterizes it (Sec. IV-B, Lemma 4.2), generalized to d
// dimensions. Two pruning rules resolve whole cells without per-point work:
//
//   - L1 (inlier) rule: every pair of points within a cell's radius-1
//     Chebyshev block (3^d cells; 9 in 2D) is within distance r, so if the
//     block holds more than k points every core point in the cell is an
//     inlier.
//   - L2 (outlier) rule: any point outside the radius-⌈2√d⌉ block (7×7=49
//     cells in 2D) is farther than r away, so if the block holds at most k
//     points every core point in the cell is an outlier.
//
// Points in cells resolved by neither rule are "evaluated individually, in
// a fashion similar to Nested-Loop": a random-order scan of the whole
// candidate pool with early termination — the |D| + |D|·A(D)·k/(πr²) cost
// of Lemma 4.2's Equation (3). The CellBasedL2 variant below strengthens
// this fallback beyond the paper.
type cellBasedDetector struct {
	seed int64
}

func (cellBasedDetector) Kind() Kind { return CellBased }

func (d cellBasedDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (d cellBasedDetector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	ix := buildCellIndex(all, params.R, st)
	cells := ix.coreCells(nCore)
	pool := scanPool(all, d.seed)
	r2 := params.R * params.R
	return len(cells), func(lo, hi int, t *Result) {
		sc := newNbScratch(all.Dim)
		for _, c := range cells[lo:hi] {
			if _, white := ix.prune(&sc, all, c, params.K, t); !white {
				continue
			}
			// Nested-Loop-style random scan over the full pool,
			// early-terminating at k neighbors — exactly the
			// |D|·A(D)·k/(πr²) fallback of Lemma 4.2's Equation (3).
			for _, pi := range ix.ptIdx[c.lo:c.hi] {
				if randomScan(all, int(pi), pool, r2, params.K, &t.Stats) < params.K {
					t.OutlierIDs = append(t.OutlierIDs, all.IDs[pi])
				}
			}
		}
	}
}

// cellBasedL2Detector is an optimized Cell-Based variant beyond the paper:
// undecided cells seed each point's neighbor count with the guaranteed L1
// block (all within r) and scan only the L1–L2 ring, never the full pool.
// It dominates the paper's Cell-Based at every density; the ablation
// benchmarks quantify by how much.
type cellBasedL2Detector struct{}

func (cellBasedL2Detector) Kind() Kind { return CellBasedL2 }

func (d cellBasedL2Detector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (cellBasedL2Detector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	ix := buildCellIndex(all, params.R, st)
	cells := ix.coreCells(nCore)
	r2 := params.R * params.R
	return len(cells), func(lo, hi int, t *Result) {
		sc := newNbScratch(all.Dim)
		// Per-cell scratch, reused across undecided cells: the L1 block's
		// ordinals and the ring membership (point indices).
		var l1Ords []int
		var ring []int32
		for _, c := range cells[lo:hi] {
			cnt1, white := ix.prune(&sc, all, c, params.K, t)
			if !white {
				continue
			}
			// Points in the L1 block are guaranteed neighbors; only the ring
			// between L1 and L2 needs distance checks.
			l1Ords = l1Ords[:0]
			ix.forNeighborhoodSc(&sc, c.ord, 1, func(o int) { l1Ords = append(l1Ords, o) })
			ring = ring[:0]
			ix.forNeighborhoodSc(&sc, c.ord, ix.l2, func(o int) {
				for _, l1 := range l1Ords {
					if o == l1 {
						return
					}
				}
				ring = append(ring, ix.members(o)...)
			})
			for _, pi := range ix.ptIdx[c.lo:c.hi] {
				neighbors := cnt1 - 1 // every L1-block point is within r
				for _, qi := range ring {
					if neighbors >= params.K {
						break
					}
					t.Stats.DistComps++
					if all.Within2(int(pi), int(qi), r2) {
						neighbors++
					}
				}
				if neighbors < params.K {
					t.OutlierIDs = append(t.OutlierIDs, all.IDs[pi])
				}
			}
		}
	}
}

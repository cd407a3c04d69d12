package detect

import (
	"math"

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

// cellRules is what both Cell-Based variants' whole-cell rules read: the
// partition's points, their cell index (cells exactly CellSide wide, so
// L2Radius bounds how many cells away a neighbor can be) and that radius.
// With the core points forming the set's prefix, a cell's core members are
// the leading run of its members below nCore.
type cellRules struct {
	all *geom.PointSet
	ix  *geom.CellIndex
	l2  int
}

func newCellRules(all *geom.PointSet, r float64, stats *Stats) cellRules {
	stats.PointsIndexed += int64(all.Len())
	return cellRules{all: all, ix: geom.NewCellIndex(all, CellSide(all.Dim, r)), l2: L2Radius(all.Dim)}
}

// coreCell is one cell holding at least one core point: the span of the
// index's Order holding its core members. Offsets rather than a subslice
// keep the list free of pointers, so the garbage collector never scans it.
type coreCell struct {
	lo, hi int32
}

// coreCells lists every cell holding a core point, in ascending ordinal
// order — the Cell-Based variants' work items. It counts first and fills
// second, so the list is one exact-size allocation.
func (cr cellRules) coreCells(nCore int) []coreCell {
	order := cr.ix.Order
	n := 0
	cr.ix.Cells(func(_ int, lo, _ int32) {
		if int(order[lo]) < nCore {
			n++
		}
	})
	cells := make([]coreCell, 0, n)
	cr.ix.Cells(func(_ int, lo, hi int32) {
		if int(order[lo]) >= nCore {
			return
		}
		for int(order[hi-1]) >= nCore {
			hi--
		}
		cells = append(cells, coreCell{lo: lo, hi: hi})
	})
	return cells
}

// centre returns the coordinates of c's first member, which name c's cell
// to a block walk.
func (cr cellRules) centre(c coreCell) []float64 {
	return cr.all.CoordsAt(int(cr.ix.Order[c.lo]))
}

// prune applies both variants' whole-cell rules to core cell c: an inlier
// cell (L1 block holds more than k points) is done, an outlier cell (L2
// block holds at most k) reports every core member. It returns the L1
// block count and whether c is undecided ("white") and needs per-point
// work.
func (cr cellRules) prune(od *geom.Odometer, c coreCell, k int, t *Result) (cnt1 int, white bool) {
	cnt1, inlier := cr.inlier(od, c, k, t)
	if inlier {
		return cnt1, false
	}
	if cr.ix.BlockCount(od, cr.centre(c), cr.l2)-1 < k {
		cr.outliers(c, t)
		return cnt1, false
	}
	return cnt1, true
}

// inlier applies the L1 rule to core cell c: it returns the L1 block count
// and whether the block holds more than k points, which makes c an inlier
// cell.
func (cr cellRules) inlier(od *geom.Odometer, c coreCell, k int, t *Result) (cnt1 int, inlier bool) {
	cnt1 = cr.ix.BlockCount(od, cr.centre(c), 1)
	if cnt1-1 >= k {
		t.Stats.CellsPruned++
		return cnt1, true
	}
	return cnt1, false
}

// outliers reports every core member of c, an outlier cell by the L2 rule.
func (cr cellRules) outliers(c coreCell, t *Result) {
	t.Stats.CellsPruned++
	for _, pi := range cr.ix.Order[c.lo:c.hi] {
		t.OutlierIDs = append(t.OutlierIDs, cr.all.IDs[pi])
	}
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
	cr := newCellRules(all, params.R, st)
	cells := cr.coreCells(nCore)
	pool := scanPool(all, d.seed)
	r2 := params.R * params.R
	return len(cells), func(lo, hi int, t *Result) {
		od := geom.NewOdometer(all.Dim)
		for _, c := range cells[lo:hi] {
			if _, white := cr.prune(&od, c, params.K, t); !white {
				continue
			}
			// Nested-Loop-style random scan over the full pool,
			// early-terminating at k neighbors — exactly the
			// |D|·A(D)·k/(πr²) fallback of Lemma 4.2's Equation (3).
			for _, pi := range cr.ix.Order[c.lo:c.hi] {
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
	cr := newCellRules(all, params.R, st)
	cells := cr.coreCells(nCore)
	r2 := params.R * params.R
	return len(cells), func(lo, hi int, t *Result) {
		od := geom.NewOdometer(all.Dim)
		var ring []int32 // the ring's members, reused across cells
		for _, c := range cells[lo:hi] {
			cnt1, inlier := cr.inlier(&od, c, params.K, t)
			if inlier {
				continue
			}
			// The L2 block is the L1 block and the ring between L1 and L2,
			// so the ring's members also count the L2 block for the
			// outlier rule.
			ring = cr.ix.AppendRing(ring[:0], &od, cr.centre(c), 1, cr.l2)
			if cnt1+len(ring)-1 < params.K {
				cr.outliers(c, t)
				continue
			}
			// Points in the L1 block are guaranteed neighbors; only the ring
			// needs distance checks.
			for _, pi := range cr.ix.Order[c.lo:c.hi] {
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

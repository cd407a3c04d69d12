package index

import (
	"math"

	"dod/internal/errs"
	"dod/internal/geom"
)

// CountScratch holds the per-caller buffers of a neighbor query: the query
// cell coordinates and the ring-walk cursor and offset odometer. Batch
// scoring issues thousands of queries per request and the window walks two
// neighborhoods per ingested point, so each scoring worker and each window
// owns one CountScratch and the steady-state query path allocates nothing.
// A CountScratch must not be shared between concurrent queries; the Index
// itself remains safe for concurrent use.
type CountScratch struct {
	center []int64
	cur    []int64
	off    []int64
}

// NewCountScratch returns an empty scratch; buffers are sized lazily to the
// index dimensionality on first use.
func NewCountScratch() *CountScratch { return &CountScratch{} }

func (sc *CountScratch) grow(dim int) {
	if cap(sc.center) < dim {
		sc.center = make([]int64, dim)
		sc.cur = make([]int64, dim)
		sc.off = make([]int64, dim)
	}
	sc.center = sc.center[:dim]
	sc.cur = sc.cur[:dim]
	sc.off = sc.off[:dim]
}

// centerOn sizes the scratch for ix and sets its center to p's cell.
func (sc *CountScratch) centerOn(ix *Index, p geom.Point) {
	sc.grow(ix.dim)
	ix.cellCoordsInto(sc.center[:0], p)
}

// WalkNeighborhood calls fn with every cell within Chebyshev distance l2 of
// center, ring by ring and lexicographically within a ring — the one
// neighbourhood walk of both serving tiers: the window's and the index's
// own, and the router's grouping of a point's cells by owning shard.
// Offsets that would leave the int64 cell space are skipped, never
// wrapped. It allocates nothing; the slice passed to fn is the scratch's,
// so copy it to retain.
func (sc *CountScratch) WalkNeighborhood(center []int64, l2 int, fn func(cell []int64)) {
	sc.grow(len(center))
	copy(sc.center, center)
	for radius := 0; radius <= l2; radius++ {
		sc.ringCellsSc(radius, fn)
	}
}

// ringCellsSc enumerates the cells at exactly Chebyshev distance radius from
// sc.center into fn, lexicographically, with the scratch's odometer — no
// closure or cursor allocation. The slice passed to fn aliases sc.cur (or,
// at radius 0, sc.center).
func (sc *CountScratch) ringCellsSc(radius int, fn func(cell []int64)) {
	if radius == 0 {
		fn(sc.center)
		return
	}
	center, cur, off := sc.center, sc.cur, sc.off
	d := len(center)
	for i := range off {
		off[i] = int64(-radius)
	}
	for {
		surface, valid := false, true
		for i := 0; i < d; i++ {
			o, v := off[i], center[i]
			if o < 0 && v < math.MinInt64-o {
				valid = false // below the representable cell space
				break
			}
			if o > 0 && v > math.MaxInt64-o {
				valid = false // above the representable cell space
				break
			}
			cur[i] = v + o
			if o == int64(-radius) || o == int64(radius) {
				surface = true
			}
		}
		if valid && surface {
			fn(cur)
		}
		i := d - 1
		for ; i >= 0; i-- {
			off[i]++
			if off[i] <= int64(radius) {
				break
			}
			off[i] = int64(-radius)
		}
		if i < 0 {
			return
		}
	}
}

// cellBeyondR reports that no resident of cell c passes within for p, so a
// ring walk skips the cell's hash, lock and probe: in 2-D about half the
// 49-cell neighbourhood. It is conservative under rounding. Each axis of
// the rounded box [lo, hi] = [cᵢ·side, lo+side] is widened by slack
// (boxSlack), at least 2⁻⁵⁰·max(|lo|, |hi|): that covers the few ulps by
// which the box's rounded edges and the rounded floor(v/side) that filed a
// resident can disagree, so every point filed in c lies in the widened
// box. Round-to-nearest is monotone, so on each axis the box's term is at
// most any resident's term in within; both sums add non-negative terms in
// coordinate order, so a box sum beyond r² means every resident's is too.
func (ix *Index) cellBeyondR(p geom.Point, c []int64, slack float64) bool {
	var d2 float64
	for i, v := range p.Coords {
		lo := float64(c[i]) * ix.side
		if v < lo-slack {
			d := lo - slack - v
			d2 += d * d
		} else if hi := lo + ix.side + slack; v > hi {
			d := v - hi
			d2 += d * d
		}
	}
	return d2 > ix.r*ix.r
}

// boxSlack is the widening cellBeyondR gives every box of p's ring walk,
// computed once per walk: 2⁻⁴⁹·(max|vᵢ| + (l2+2)·side). A cell within l2
// of p's has |lo| and |hi| at most max|vᵢ| + (l2+2)·side up to a few
// rounding errors, which the doubled factor covers, so the slack is at
// least 2⁻⁵⁰·max(|lo|, |hi|) for every cell the walk can prune.
func (ix *Index) boxSlack(p geom.Point) float64 {
	m := 0.0
	for _, v := range p.Coords {
		m = max(m, math.Abs(v))
	}
	return (m + float64(ix.l2+2)*ix.side) * 0x1p-49
}

// Neighbors is the index's one ring walk: it visits p's neighbours (within
// r, another ID) ring by ring out to the L2 radius, lexicographically
// within a ring, and returns how many it found. owns == nil walks every
// cell, otherwise only those owns accepts; limit > 0 stops at limit,
// returning min(true count, limit); fn, when non-nil, gets each
// neighbour's tag. Ring-2+ cells cellBeyondR rules out are skipped. It
// allocates nothing; one scratch per goroutine.
func (ix *Index) Neighbors(sc *CountScratch, p geom.Point, owns func(cell []int64) bool, limit int, fn func(tag uint32)) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	sc.centerOn(ix, p)
	count, slack := 0, ix.boxSlack(p)
	depth := 0 // deepest ring entered; feeds the ring-depth histogram
	for radius := 0; radius <= ix.l2 && (limit <= 0 || count < limit); radius++ {
		depth = radius
		sc.ringCellsSc(radius, func(c []int64) {
			if limit > 0 && count >= limit || radius > 1 && ix.cellBeyondR(p, c, slack) || owns != nil && !owns(c) {
				return
			}
			count = ix.visitCell(sc, p, c, count, limit, fn)
		})
	}
	if ix.met != nil {
		if fn != nil {
			ix.met.scans.Inc()
		}
		if limit > 0 {
			ix.met.counts.Inc()
			ix.met.ringDepth.Observe(float64(depth))
		}
	}
	return count, nil
}

// NeighborCountScratch is the capped count behind NeighborCount, on
// caller-owned buffers: Neighbors over every cell, stopped at limit ≥ 1.
func (ix *Index) NeighborCountScratch(sc *CountScratch, p geom.Point, limit int) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	if limit < 1 {
		return 0, errs.BadParams("NeighborCount limit must be >= 1, got %d", limit)
	}
	return ix.Neighbors(sc, p, nil, limit, nil)
}

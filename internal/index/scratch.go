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

// cellBeyondR reports whether every point of cell c is farther than r from
// p — the closest corner of the cell box [cᵢ·side, (cᵢ+1)·side) is already
// beyond r. Probing such a cell cannot contribute a neighbor (WithinDist is
// Dist² ≤ r², and every resident of c has Dist² ≥ the box minimum), so the
// ring walks skip the hash + lock + map probe entirely. In 2D roughly half
// of the 49-cell L2 neighborhood lies outside the r-disk, so the prune
// halves the dominant per-point cost of the serving ingest path.
func (ix *Index) cellBeyondR(p geom.Point, c []int64) bool {
	var d2 float64
	for i, v := range p.Coords {
		lo := float64(c[i]) * ix.side
		if v < lo {
			d := lo - v
			d2 += d * d
		} else if hi := lo + ix.side; v > hi {
			d := v - hi
			d2 += d * d
		}
	}
	return d2 > ix.r*ix.r
}

// NeighborsScratch calls fn with the tag of every indexed point within
// distance r of p, excluding any point sharing p's ID, ring by ring and
// lexicographically within a ring. It never terminates early — the sliding
// window uses it to maintain exact per-point neighbor counts under
// admission and eviction, once per point each, which is why it allocates
// nothing (the scratch ring walk carries the whole enumeration) and skips
// the hash, lock and probe of ring-2+ cells that lie wholly outside the
// r-disk. The L1 block needs no distance checks. One scratch per goroutine.
func (ix *Index) NeighborsScratch(sc *CountScratch, p geom.Point, fn func(tag uint32)) error {
	if err := ix.checkPoint(p); err != nil {
		return err
	}
	if ix.met != nil {
		ix.met.scans.Inc()
	}
	sc.centerOn(ix, p)
	for radius := 0; radius <= ix.l2; radius++ {
		exact := radius > 1
		sc.ringCellsSc(radius, func(c []int64) {
			if exact && ix.cellBeyondR(p, c) {
				return
			}
			ix.readCellCoords(c, func(cl *cell) {
				for i, id := range cl.ids {
					if id != p.ID && (!exact || ix.within(p, cl.xs[i*ix.dim:])) {
						fn(cl.tags[i])
					}
				}
			})
		})
	}
	return nil
}

// NeighborCountScratch is the capped count behind NeighborCount, on
// caller-owned buffers. The L1 block (Chebyshev radius 1) is auto-accepted
// without distance computations; rings 2..⌈2√d⌉ are expanded outward with
// exact checks, and the scan stops at whichever comes first, limit
// neighbors or the L2 radius (the bound makes the count order-independent).
// Use one scratch per goroutine; the index may be queried and mutated
// concurrently as usual.
func (ix *Index) NeighborCountScratch(sc *CountScratch, p geom.Point, limit int) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	if limit < 1 {
		return 0, errs.BadParams("NeighborCount limit must be >= 1, got %d", limit)
	}
	sc.centerOn(ix, p)
	count := 0
	depth := 0 // deepest ring entered; feeds the ring-depth histogram
	for radius := 0; radius <= ix.l2 && count < limit; radius++ {
		depth = radius
		exact := radius > 1
		sc.ringCellsSc(radius, func(c []int64) {
			if count >= limit || exact && ix.cellBeyondR(p, c) {
				return
			}
			ix.readCellCoords(c, func(cl *cell) {
				for i, id := range cl.ids {
					if count >= limit {
						return
					}
					if id != p.ID && (!exact || ix.within(p, cl.xs[i*ix.dim:])) {
						count++
					}
				}
			})
		})
	}
	if ix.met != nil {
		ix.met.counts.Inc()
		ix.met.ringDepth.Observe(float64(depth))
	}
	return count, nil
}

// NeighborsOwnedScratch visits p's indexed neighbors — fn gets each one's
// tag — in the cells of its neighbourhood that owns accepts, walking the
// neighbourhood in place on sc instead of over a list of the owned cells,
// and returns how many it found.
// The acceptance rule is NeighborsInCells' — cells within Chebyshev
// distance 1 of p's own auto-accept, farther cells get the exact distance
// check, a point never neighbors its own ID — and so is the cell order, so
// the count and the visit sequence are those of NeighborsInCells over the
// owned cells in ring order. Every owned cell is probed: there is no
// beyond-r pruning. One scratch per goroutine; it allocates nothing.
func (ix *Index) NeighborsOwnedScratch(sc *CountScratch, p geom.Point, owns func(cell []int64) bool, fn func(tag uint32)) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	sc.centerOn(ix, p)
	count := 0
	for radius := 0; radius <= ix.l2; radius++ {
		exact := radius > 1
		sc.ringCellsSc(radius, func(c []int64) {
			if !owns(c) {
				return
			}
			ix.readCellCoords(c, func(cl *cell) {
				for i, id := range cl.ids {
					if id == p.ID || exact && !ix.within(p, cl.xs[i*ix.dim:]) {
						continue
					}
					count++
					fn(cl.tags[i])
				}
			})
		})
	}
	return count, nil
}

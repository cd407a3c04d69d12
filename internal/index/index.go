// Package index provides a sharded, mutex-striped incremental grid index
// for online distance-threshold outlier detection.
//
// The batch Cell-Based detector (internal/detect) hashes a fixed dataset
// into a grid of cell side r/(2√d) once and then prunes whole cells. The
// serving path cannot rebuild that layout per request: points arrive and
// expire one at a time. Index keeps the same density-aware cell geometry
// resident and mutable:
//
//   - any two points whose cells are within Chebyshev distance 1 are at
//     most 2·(r/(2√d))·√d = r apart, so the L1 block is auto-accepted as
//     neighbors without a single distance computation (Lemma 4.2's inlier
//     rule, turned into a per-point counting shortcut);
//   - points whose cells are more than ⌈2√d⌉ apart are farther than r, so
//     ring expansion stops at the L2 radius (the outlier rule's cutoff).
//
// NeighborCount therefore decides a point's inlier/outlier status by
// expanding rings outward from its cell and terminating as soon as k
// neighbors are certain — without ever scanning the full window.
//
// Cells live in an open (unbounded) integer coordinate space, so the index
// needs no domain rectangle and survives arbitrary drift. Cells are hashed
// onto a fixed set of shards, each guarded by its own RWMutex, so inserts,
// removals and queries on different regions of space proceed in parallel.
package index

import (
	"math"
	"math/rand/v2"
	"sync"

	"dod/internal/detect"
	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/obs"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 16

// Config sizes an Index.
type Config struct {
	// Dim is the point dimensionality; all inserted and queried points
	// must match.
	Dim int
	// R is the neighbor distance threshold; it fixes the cell side
	// r/(2√d) and cannot change after construction.
	R float64
	// Shards is the number of independently locked shards; default
	// DefaultShards. More shards admit more concurrent mutators at the
	// cost of a little memory.
	Shards int
	// Obs, when non-nil, receives the index's metrics: query counters and
	// the ring-expansion depth histogram. Nil disables instrumentation at
	// zero hot-path cost beyond one pointer check.
	Obs *obs.Registry
}

// cell holds the residents currently hashed to one grid cell, column-wise —
// each resident's ID, its coordinates (Dim values, inline in xs) and the tag
// its owner addressed it by, swap-removed together — plus the cell's exact
// coordinates and an overflow chain for the astronomically rare case of two
// coordinate vectors sharing a 64-bit hash. Correctness never leans on hash
// quality: every probe verifies coords before touching residents.
type cell struct {
	coords []int64
	next   *cell
	ids    []uint64
	xs     []float64
	tags   []uint32
}

// shard is one lock stripe: a fraction of the cells, guarded by one mutex.
// A cell that empties goes onto free, and the stripe's next new cell reuses
// it with its columns' capacity; free never holds more cells than are live,
// so a stripe retains at most twice its live cells.
type shard struct {
	mu    sync.RWMutex
	cells map[uint64]*cell
	free  []*cell // emptied cells, len(free) <= live
	live  int     // cells linked into cells
	peak  int     // the most cells live at once since cells was made
	n     int     // points resident in this shard
}

// releasePeak is the live cell count past which a stripe whose last cell
// leaves swaps its cell map for a fresh one: a Go map keeps its buckets
// after its keys are deleted, so a drained stripe would otherwise hold its
// peak's map for life. Stripes that never grew past it keep theirs, so a
// small window that empties and refills allocates nothing.
const releasePeak = 64

// newCellLocked links a cell for coordinates cc under hash h, reusing an
// emptied cell when the stripe has one. Callers hold sh.mu for writing.
func (sh *shard) newCellLocked(cc []int64, h uint64) *cell {
	var c *cell
	if k := len(sh.free) - 1; k >= 0 {
		c = sh.free[k]
		sh.free[k] = nil
		sh.free = sh.free[:k]
		c.coords = append(c.coords[:0], cc...)
	} else {
		c = &cell{coords: append([]int64(nil), cc...)}
	}
	c.next = sh.cells[h]
	sh.cells[h] = c
	sh.live++
	sh.peak = max(sh.peak, sh.live)
	return c
}

// retireLocked takes an emptied cell, already unlinked, and keeps it for
// reuse while the free list is shorter than the live cell count. The
// stripe's last cell leaving releases a map and free list that grew past
// releasePeak. Callers hold sh.mu for writing.
func (sh *shard) retireLocked(c *cell) {
	c.next = nil
	sh.live--
	if k := len(sh.free) - 1; k >= sh.live { // the free list would outnumber the live cells: drop one
		sh.free[k] = nil
		sh.free = sh.free[:k]
	} else if k+1 < sh.live {
		sh.free = append(sh.free, c)
	}
	if sh.live == 0 && sh.peak > releasePeak {
		sh.cells = make(map[uint64]*cell)
		sh.free = nil
		sh.peak = 0
	}
}

// Index is a sharded incremental grid index. All methods are safe for
// concurrent use. Mutations on distinct shards do not contend; queries
// take only read locks.
type Index struct {
	dim    int
	r      float64
	side   float64 // cell side r/(2√d)
	l2     int     // Chebyshev radius beyond which no neighbor exists
	shards []shard
	seed   uint64        // per-index stripe-hash seed
	met    *indexMetrics // nil when unobserved
}

// indexMetrics are the obs instruments of one Index.
type indexMetrics struct {
	inserts   *obs.Counter
	removes   *obs.Counter
	counts    *obs.Counter   // ring walks capped at a limit (every NeighborCount)
	scans     *obs.Counter   // ring walks that hand neighbours to a visitor, owned or not
	ringDepth *obs.Histogram // terminal ring radius per capped walk
}

// register creates the index instruments on reg.
func registerMetrics(reg *obs.Registry, ix *Index) *indexMetrics {
	reg.GaugeFunc("dod_index_points",
		"points currently resident in the grid index",
		func() float64 { return float64(ix.Len()) })
	reg.GaugeFunc("dod_index_shards",
		"lock-stripe count of the grid index",
		func() float64 { return float64(len(ix.shards)) })
	return &indexMetrics{
		inserts: reg.Counter("dod_index_inserts_total", "points inserted into the grid index"),
		removes: reg.Counter("dod_index_removes_total", "points removed from the grid index"),
		counts: reg.Counter("dod_index_queries_total",
			"index neighbor queries", obs.L("op", "count")),
		scans: reg.Counter("dod_index_queries_total",
			"index neighbor queries", obs.L("op", "enumerate")),
		ringDepth: reg.Histogram("dod_index_ring_depth",
			"terminal Chebyshev ring radius reached per NeighborCount query",
			obs.LinearBuckets(0, 1, ix.l2+1)),
	}
}

// New builds an empty index for dim-dimensional points with distance
// threshold r.
func New(cfg Config) (*Index, error) {
	if cfg.Dim < 1 {
		return nil, errs.BadParams("index dimension must be >= 1, got %d", cfg.Dim)
	}
	if cfg.R <= 0 {
		return nil, errs.BadParams("distance threshold r must be positive, got %g", cfg.R)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	ix := &Index{
		dim:    cfg.Dim,
		r:      cfg.R,
		side:   detect.CellSide(cfg.Dim, cfg.R),
		l2:     detect.L2Radius(cfg.Dim),
		shards: make([]shard, shards),
		seed:   rand.Uint64(),
	}
	for i := range ix.shards {
		ix.shards[i].cells = make(map[uint64]*cell)
	}
	if cfg.Obs != nil {
		ix.met = registerMetrics(cfg.Obs, ix)
	}
	return ix, nil
}

// coords maps a point to its integer cell coordinate vector.
func (ix *Index) coords(p geom.Point) []int64 {
	return ix.cellCoordsInto(make([]int64, 0, ix.dim), p)
}

// cellCoordsInto computes p's cell coordinates into buf; the hot paths pass
// a stack-backed buffer so the per-point coordinate vector is free.
func (ix *Index) cellCoordsInto(buf []int64, p geom.Point) []int64 {
	for _, v := range p.Coords {
		buf = append(buf, int64(math.Floor(v/ix.side)))
	}
	return buf
}

// cellHash folds a cell coordinate vector into the 64-bit key of the cell
// map, seeded per index. An FNV-style xor-multiply over whole coordinates
// inlines into the probe loop; hash quality only affects performance, never
// correctness, because cells carry their exact coordinates and an overflow
// chain.
func (ix *Index) cellHash(c []int64) uint64 {
	h := ix.seed ^ 14695981039346656037
	for _, v := range c {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// sameCoords reports whether two equal-length coordinate vectors match —
// the exactness guard behind every hash-keyed cell probe.
func sameCoords(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPoint is the one validation every insert and query passes: p has the
// index's dimensionality (failures match errs.ErrDimMismatch) and a finite
// position (errs.ErrBadParams) — int64(Floor(±Inf/side)) and int64(NaN) name
// an arbitrary cell, whose residents the L1 block would then accept as
// neighbors without a distance test.
func (ix *Index) checkPoint(p geom.Point) error {
	if p.Dim() != ix.dim {
		return &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: ix.dim}
	}
	for i, v := range p.Coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errs.BadParams("point %d: coordinate %d is %g, want a finite value", p.ID, i, v)
		}
	}
	return nil
}

// Insert adds p to the index under tag 0; see InsertTag.
func (ix *Index) Insert(p geom.Point) error { return ix.InsertTag(p, 0) }

// InsertTag adds p to the index, copying its coordinates into its cell, and
// files it under tag: every neighbour walk hands the tag back, so an owner
// that addresses its residents by tag finds a neighbour's state without a
// lookup. The caller is responsible for ID uniqueness; the sliding-window
// layer above enforces it. The cell probe runs through a stack buffer, and
// a new cell reuses one its stripe emptied earlier, so a steady stream of
// inserts and removes allocates nothing.
func (ix *Index) InsertTag(p geom.Point, tag uint32) error {
	if err := ix.checkPoint(p); err != nil {
		return err
	}
	var a [8]int64
	cc := ix.cellCoordsInto(a[:0], p)
	h := ix.cellHash(cc)
	sh := &ix.shards[h%uint64(len(ix.shards))]
	sh.mu.Lock()
	c := sh.cells[h]
	for c != nil && !sameCoords(c.coords, cc) {
		c = c.next
	}
	if c == nil {
		c = sh.newCellLocked(cc, h)
	}
	c.ids = append(c.ids, p.ID)
	c.xs = append(c.xs, p.Coords...)
	c.tags = append(c.tags, tag)
	sh.n++
	sh.mu.Unlock()
	if ix.met != nil {
		ix.met.inserts.Inc()
	}
	return nil
}

// Remove deletes the point with p's ID from the cell containing p's
// coordinates. It reports whether the point was found.
func (ix *Index) Remove(p geom.Point) bool {
	if p.Dim() != ix.dim {
		return false
	}
	var a [8]int64
	cc := ix.cellCoordsInto(a[:0], p)
	h := ix.cellHash(cc)
	sh := &ix.shards[h%uint64(len(ix.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var prev *cell
	c := sh.cells[h]
	for c != nil && !sameCoords(c.coords, cc) {
		prev, c = c, c.next
	}
	if c == nil {
		return false
	}
	for i, id := range c.ids {
		if id != p.ID {
			continue
		}
		last := len(c.ids) - 1
		c.ids[i] = c.ids[last]
		c.tags[i] = c.tags[last]
		copy(c.xs[i*ix.dim:(i+1)*ix.dim], c.xs[last*ix.dim:])
		c.ids = c.ids[:last]
		c.tags = c.tags[:last]
		c.xs = c.xs[:last*ix.dim]
		if last == 0 {
			// Unlink the emptied cell from its hash chain.
			switch {
			case prev != nil:
				prev.next = c.next
			case c.next != nil:
				sh.cells[h] = c.next
			default:
				delete(sh.cells, h)
			}
			sh.retireLocked(c)
		}
		sh.n--
		if ix.met != nil {
			ix.met.removes.Inc()
		}
		return true
	}
	return false
}

// Len returns the number of points currently indexed.
func (ix *Index) Len() int {
	total := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		total += sh.n
		sh.mu.RUnlock()
	}
	return total
}

// ShardOccupancy returns the number of resident points per shard, in shard
// order — the /statsz occupancy gauge.
func (ix *Index) ShardOccupancy() []int {
	occ := make([]int, len(ix.shards))
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		occ[i] = sh.n
		sh.mu.RUnlock()
	}
	return occ
}

// visitCell is every walk's step and the one acceptance rule: under the
// stripe's read lock it skips cc's resident with p's ID, accepts the rest
// whole when cc is within Chebyshev distance 1 of p's cell sc.center (Lemma
// 4.2's L1 block), and otherwise each that within accepts. It adds them to
// count, handing fn their tags, stops at limit > 0, and returns the count.
func (ix *Index) visitCell(sc *CountScratch, p geom.Point, cc []int64, count, limit int, fn func(tag uint32)) int {
	exact := ChebDist(sc.center, cc) > 1
	h := ix.cellHash(cc)
	sh := &ix.shards[h%uint64(len(ix.shards))]
	sh.mu.RLock()
	c := sh.cells[h]
	for c != nil && !sameCoords(c.coords, cc) {
		c = c.next
	}
	if c != nil {
		for i, id := range c.ids {
			if limit > 0 && count >= limit {
				break
			}
			if id == p.ID || exact && !ix.within(p, c.xs[i*ix.dim:]) {
				continue
			}
			count++
			if fn != nil {
				fn(c.tags[i])
			}
		}
	}
	sh.mu.RUnlock()
	return count
}

// within reports whether the resident stored inline as row lies within r of
// p: geom.WithinDist(p, q, r) on the row, the same terms in the same order,
// so the same bits.
func (ix *Index) within(p geom.Point, row []float64) bool {
	var s float64
	for i, v := range p.Coords {
		d := v - row[i]
		s += d * d
	}
	return s <= ix.r*ix.r
}

// NeighborCount counts points within distance r of p (excluding any point
// sharing p's ID), early-terminating once the count reaches limit. It
// returns min(true count, limit). With limit = k this decides the
// distance-threshold verdict: a return < k means p is an outlier with
// respect to the current index contents.
//
// It is NeighborCountScratch on a scratch of its own, for callers issuing
// one query; anything that loops keeps a CountScratch and allocates nothing.
func (ix *Index) NeighborCount(p geom.Point, limit int) (int, error) {
	return ix.NeighborCountScratch(NewCountScratch(), p, limit)
}

// CellCoords returns p's integer grid cell coordinate vector — the unit of
// ownership in the sharded serving tier: a cell's points always live
// together on one shard, and a point's verdict depends only on cells
// within Chebyshev distance ⌈2√d⌉ of its own (Lemma 3.1).
func (ix *Index) CellCoords(p geom.Point) []int64 { return ix.coords(p) }

// ChebDist returns the Chebyshev (L∞) distance between two cell coordinate
// vectors, saturating at math.MaxUint64 rather than overflowing for cells
// at opposite int64 extremes. Cells more than 1 apart get the exact distance
// check in every walk (visitCell); the router's pairwise pass applies the
// same rule.
func ChebDist(a, b []int64) uint64 {
	var max uint64
	for i := range a {
		var d uint64
		if a[i] >= b[i] {
			d = uint64(a[i]) - uint64(b[i]) // two's complement difference magnitude
		} else {
			d = uint64(b[i]) - uint64(a[i])
		}
		if d > max {
			max = d
		}
	}
	return max
}

// NeighborsInCells is the cell-list walk: Neighbors' visit, fn and limit
// over the given cells in the order listed, with no prune. Split over a
// partition of a neighbourhood it counts what one ring walk counts, and
// over the cells listed in ring order it visits the ring walk's exact
// sequence. p's cell is computed on sc, one scratch per goroutine.
func (ix *Index) NeighborsInCells(sc *CountScratch, p geom.Point, cells [][]int64, limit int, fn func(tag uint32)) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	sc.centerOn(ix, p)
	count := 0
	for _, c := range cells {
		if limit > 0 && count >= limit {
			break
		}
		count = ix.visitCell(sc, p, c, count, limit, fn)
	}
	return count, nil
}

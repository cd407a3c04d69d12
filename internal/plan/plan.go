// Package plan defines partition plans — the output of DOD's preprocessing
// stage (Fig. 6) — and the planners that generate them: the Domain baseline,
// uniSpace, DDriven, CDriven, and the full multi-tactic DMT (Sec. VI-A's
// experimental methodology names).
//
// A Plan bundles the paper's three preprocessing outputs:
//
//   - the partition plan (disjoint rectangles tiling the domain), consumed
//     by mappers via Locate;
//   - the algorithm plan (one detector per partition, Def. 3.4);
//   - the allocation plan (partition → reducer, Step 3 of Sec. V-A),
//     consumed by the MapReduce partitioner function.
package plan

import (
	"fmt"
	"math"
	"sync/atomic"

	"dod/internal/cost"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/sample"
)

// Partition is one element of a partition plan.
type Partition struct {
	ID       int
	Rect     geom.Rect
	EstCount float64     // estimated cardinality (from the sample histogram)
	EstCost  float64     // modeled detection cost under Algo
	Algo     detect.Kind // the algorithm plan entry for this partition
	Reducer  int         // the allocation plan entry for this partition
}

// Profile returns the cost-model profile of the partition.
func (p Partition) Profile() cost.PartitionProfile {
	return cost.PartitionProfile{
		Cardinality: p.EstCount,
		Area:        p.Rect.AreaEps(1e-12),
		Dim:         p.Rect.Dim(),
	}
}

// Plan is a complete multi-tactic plan.
type Plan struct {
	Name        string
	Domain      geom.Rect
	Partitions  []Partition
	NumReducers int
	// SupportR is the supporting-area extension distance (Def. 3.3). Zero
	// disables supporting areas — the Domain baseline — forcing a second
	// verification job.
	SupportR float64
	// ExactSupport switches from Def. 3.3's rectangular r-expansion to the
	// exact Def. 3.2 criterion: a point supports a partition iff its
	// distance to the partition rectangle is at most r. The exact region
	// has rounded corners, so it strictly shrinks the replicated set at
	// the price of a distance computation per candidate (the ablation
	// benchmark quantifies the trade).
	ExactSupport bool

	index atomic.Pointer[overlayIndex]
}

// Validate checks the structural contract: partitions are non-empty,
// pairwise interior-disjoint, and tile the domain.
func (pl *Plan) Validate() error {
	if len(pl.Partitions) == 0 {
		return fmt.Errorf("plan %s: no partitions", pl.Name)
	}
	var area float64
	for i, a := range pl.Partitions {
		if a.ID != i {
			return fmt.Errorf("plan %s: partition %d has ID %d", pl.Name, i, a.ID)
		}
		if a.Reducer < 0 || a.Reducer >= pl.NumReducers {
			return fmt.Errorf("plan %s: partition %d assigned to reducer %d of %d", pl.Name, i, a.Reducer, pl.NumReducers)
		}
		area += a.Rect.Area()
		for _, b := range pl.Partitions[i+1:] {
			if interiorOverlap(a.Rect, b.Rect) {
				return fmt.Errorf("plan %s: partitions %d and %d overlap", pl.Name, a.ID, b.ID)
			}
		}
	}
	if dom := pl.Domain.Area(); math.Abs(area-dom) > 1e-6*(dom+1) {
		return fmt.Errorf("plan %s: partition area %g != domain area %g", pl.Name, area, dom)
	}
	return nil
}

// rectDist2 is the squared distance from p to the nearest point of r.
func rectDist2(r geom.Rect, p geom.Point) float64 {
	var s float64
	for i := range r.Min {
		v := p.Coords[i]
		switch {
		case v < r.Min[i]:
			d := r.Min[i] - v
			s += d * d
		case v > r.Max[i]:
			d := v - r.Max[i]
			s += d * d
		}
	}
	return s
}

func interiorOverlap(a, b geom.Rect) bool {
	for i := range a.Min {
		if a.Max[i] <= b.Min[i] || b.Max[i] <= a.Min[i] {
			return false
		}
	}
	return true
}

// Locate maps a point to its core partition and, when supporting areas are
// enabled, to every partition holding it as a support point (Fig. 3's map
// function). Points outside the domain are clamped for core assignment.
// It is LocateInto with no scratch: supports is a fresh slice, or nil.
func (pl *Plan) Locate(p geom.Point) (core int, supports []int) {
	return pl.LocateInto(p, nil)
}

// LocateInto is Locate writing the supporting partitions over dst[:0], in
// ascending ID order: a caller that hands the returned slice back as dst
// for the next point locates in-domain points without allocating. The
// result aliases dst's array, so it holds until that next call.
func (pl *Plan) LocateInto(p geom.Point, dst []int) (core int, supports []int) {
	ix := pl.index.Load()
	if ix == nil {
		ix = pl.buildIndex()
		pl.index.CompareAndSwap(nil, ix) // concurrent builds are identical
	}
	clamped := pl.Domain.Clamp(p)
	ord := ix.grid.CellOrdinal(clamped)
	core = -1
	for _, id := range ix.coreIDs[ix.coreOff[ord]:ix.coreOff[ord+1]] {
		if pl.containsHalfOpen(pl.Partitions[id].Rect, clamped) {
			core = int(id)
			break
		}
	}
	if core == -1 {
		// Numeric edge: fall back to a full scan (still deterministic).
		for _, part := range pl.Partitions {
			if pl.containsHalfOpen(part.Rect, clamped) {
				core = part.ID
				break
			}
		}
	}
	if core == -1 {
		// Last resort for pathological float edges: the nearest partition.
		best := math.Inf(1)
		for _, part := range pl.Partitions {
			if d := rectDist2(part.Rect, clamped); d < best {
				best, core = d, part.ID
			}
		}
	}
	supports = dst[:0]
	if pl.SupportR > 0 {
		for _, id := range ix.supportIDs[ix.supportOff[ord]:ix.supportOff[ord+1]] {
			if int(id) != core && pl.isSupport(ix, int(id), p) {
				supports = append(supports, int(id))
			}
		}
	}
	return core, supports
}

// isSupport applies the configured supporting-area criterion to partition
// id.
func (pl *Plan) isSupport(ix *overlayIndex, id int, p geom.Point) bool {
	if pl.ExactSupport {
		return rectDist2(pl.Partitions[id].Rect, p) <= pl.SupportR*pl.SupportR
	}
	return ix.expandedRect(id).Contains(p)
}

// containsHalfOpen treats partition boundaries as half-open [min, max) so a
// shared boundary point belongs to exactly one partition, except on the
// domain's upper boundary where the interval closes.
func (pl *Plan) containsHalfOpen(r geom.Rect, p geom.Point) bool {
	for i := range r.Min {
		v := p.Coords[i]
		if v < r.Min[i] {
			return false
		}
		if v >= r.Max[i] && !(v == pl.Domain.Max[i] && r.Max[i] == pl.Domain.Max[i]) {
			return false
		}
	}
	return true
}

// ReducerFor returns the reducer assigned to a partition, for use as the
// job's MapReduce partitioner.
func (pl *Plan) ReducerFor(partitionID uint64) int {
	return pl.Partitions[partitionID].Reducer
}

// MaxEstCost returns cost(P(D)) of Def. 3.4: the modeled cost of the most
// loaded reducer.
func (pl *Plan) MaxEstCost() float64 {
	loads := make([]float64, pl.NumReducers)
	for _, p := range pl.Partitions {
		loads[p.Reducer] += p.EstCost
	}
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// overlayIndex accelerates Locate with a uniform grid over the domain.
// Each cell lists, in ascending ID order, the partitions that may contain
// (core) or support (support) a point falling in the cell, as compressed
// rows: cell c's core list is coreIDs[coreOff[c]:coreOff[c+1]], and
// likewise for support. expanded holds each partition's Def. 3.3
// supporting area, Rect.Expand(SupportR), derived once and flattened, 2d
// values a partition, Min then Max (nil when supporting areas are off).
type overlayIndex struct {
	grid                *geom.Grid
	coreOff, supportOff []int32
	coreIDs, supportIDs []int32
	expanded            []float64
}

// expandedRect is partition id's supporting area, a view of expanded.
func (ix *overlayIndex) expandedRect(id int) geom.Rect {
	d := ix.grid.Domain.Dim()
	o := 2 * d * id
	return geom.Rect{Min: ix.expanded[o : o+d : o+d], Max: ix.expanded[o+d : o+2*d : o+2*d]}
}

// supportSlack widens the supporting areas the support lists are built
// from past the rounding of the exact criterion: rectDist2 ≤ R² puts a
// point at most R·(1 + 2⁻⁵¹) from the rectangle along any axis, well
// inside R·(1 + 2⁻⁴⁰).
const supportSlack = 0x1p-40

func (pl *Plan) buildIndex() *overlayIndex {
	// Resolution: aim for a few partitions per cell.
	perDim := int(math.Ceil(math.Sqrt(float64(len(pl.Partitions))))) * 2
	if perDim < 4 {
		perDim = 4
	}
	if perDim > 256 {
		perDim = 256
	}
	// Higher dimension: cap the cells at perDim², the d = 2 count, by
	// lowering the per-axis resolution. 1-D and 2-D grids keep perDim per
	// axis.
	grid := geom.NewGrid(pl.Domain, sample.DimsFor(pl.Domain.Dim(), perDim, perDim*perDim))
	idx := &overlayIndex{grid: grid}
	d := pl.Domain.Dim()
	od := geom.NewOdometer(d)
	idx.coreOff, idx.coreIDs = coverLists(grid, &od, len(pl.Partitions), func(i int) geom.Rect { return pl.Partitions[i].Rect })
	if pl.SupportR > 0 {
		idx.expanded = make([]float64, 2*d*len(pl.Partitions))
		for i, part := range pl.Partitions {
			r := idx.expandedRect(i)
			for j := range r.Min {
				r.Min[j] = part.Rect.Min[j] - pl.SupportR
				r.Max[j] = part.Rect.Max[j] + pl.SupportR
			}
		}
		// Both criteria are served by one list: the areas it is built
		// from hold every point either accepts.
		reach := pl.SupportR * (1 + supportSlack)
		wide := geom.Rect{Min: make([]float64, d), Max: make([]float64, d)}
		idx.supportOff, idx.supportIDs = coverLists(grid, &od, len(pl.Partitions), func(i int) geom.Rect {
			r := pl.Partitions[i].Rect
			for j := range r.Min {
				wide.Min[j] = math.Nextafter(r.Min[j]-reach, math.Inf(-1))
				wide.Max[j] = math.Nextafter(r.Max[j]+reach, math.Inf(1))
			}
			return wide
		})
	}
	return idx
}

// coverLists builds the compressed per-cell lists of n rectangles: each
// rectangle's ID goes to every cell of its CoverRows block, so a point of
// the rectangle finds it listed in its own cell. Rectangles are visited in
// ascending ID, so every list ascends. One pass counts each cell's entries
// and a second fills them.
func coverLists(grid *geom.Grid, od *geom.Odometer, n int, rect func(i int) geom.Rect) (off, ids []int32) {
	cells := grid.NumCells()
	off = make([]int32, cells+1)
	count := func(base, a, b int) {
		for c := base + a; c <= base+b; c++ {
			off[c+1]++
		}
	}
	for i := 0; i < n; i++ {
		grid.CoverRows(od, rect(i), count)
	}
	for c := 1; c <= cells; c++ {
		off[c] += off[c-1]
	}
	// Fill with off[c] as cell c's cursor: it ends at the start of cell
	// c+1, so one shift restores the offsets.
	ids = make([]int32, off[cells])
	var id int32
	fill := func(base, a, b int) {
		for c := base + a; c <= base+b; c++ {
			ids[off[c]] = id
			off[c]++
		}
	}
	for ; int(id) < n; id++ {
		grid.CoverRows(od, rect(int(id)), fill)
	}
	copy(off[1:], off[:cells])
	off[0] = 0
	return off, ids
}

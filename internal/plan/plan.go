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
func (pl *Plan) Locate(p geom.Point) (core int, supports []int) {
	ix := pl.index.Load()
	if ix == nil {
		ix = pl.buildIndex()
		pl.index.CompareAndSwap(nil, ix) // concurrent builds are identical
	}
	clamped := pl.Domain.Clamp(p)
	cands := ix.candidates(clamped)
	core = -1
	for _, id := range cands.core {
		if pl.containsHalfOpen(pl.Partitions[id].Rect, clamped) {
			core = id
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
	if pl.SupportR > 0 {
		for _, id := range cands.support {
			if id == core {
				continue
			}
			if pl.isSupport(ix, id, p) {
				supports = append(supports, id)
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
	return ix.expanded[id].Contains(p)
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

// overlayIndex accelerates Locate with a uniform grid over the domain;
// each cell lists the partitions that may contain (core) or support-cover
// points falling in the cell. expanded holds each partition's Def. 3.3
// supporting area, Rect.Expand(SupportR), derived once (nil when supporting
// areas are off).
type overlayIndex struct {
	grid     *geom.Grid
	core     [][]int
	support  [][]int
	expanded []geom.Rect
}

type candidateSet struct {
	core    []int
	support []int
}

func (pl *Plan) buildIndex() *overlayIndex {
	// Resolution: aim for a few partitions per cell.
	perDim := int(math.Ceil(math.Sqrt(float64(len(pl.Partitions))))) * 2
	if perDim < 4 {
		perDim = 4
	}
	if perDim > 256 {
		perDim = 256
	}
	// Higher dimension: every cell is tested against every partition, so
	// cap the cells at perDim², the d = 2 count, by lowering the per-axis
	// resolution. 1-D and 2-D grids keep perDim per axis.
	grid := geom.NewGrid(pl.Domain, sample.DimsFor(pl.Domain.Dim(), perDim, perDim*perDim))
	idx := &overlayIndex{
		grid:    grid,
		core:    make([][]int, grid.NumCells()),
		support: make([][]int, grid.NumCells()),
	}
	if pl.SupportR > 0 {
		idx.expanded = make([]geom.Rect, len(pl.Partitions))
		for i, part := range pl.Partitions {
			idx.expanded[i] = part.Rect.Expand(pl.SupportR)
		}
	}
	for ord := 0; ord < grid.NumCells(); ord++ {
		cellRect := grid.CellRect(grid.Unflatten(ord))
		for i, part := range pl.Partitions {
			if part.Rect.Overlaps(cellRect) {
				idx.core[ord] = append(idx.core[ord], part.ID)
			}
			if pl.SupportR > 0 && idx.expanded[i].Overlaps(cellRect) {
				idx.support[ord] = append(idx.support[ord], part.ID)
			}
		}
	}
	return idx
}

func (ix *overlayIndex) candidates(p geom.Point) candidateSet {
	ord := ix.grid.CellOrdinal(p)
	return candidateSet{core: ix.core[ord], support: ix.support[ord]}
}

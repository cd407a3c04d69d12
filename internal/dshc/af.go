// Package dshc implements the Density and Spatial-aware Hierarchical
// Clustering algorithm of Sec. V-A: a single-scan clustering of mini
// buckets into rectangular partitions of homogeneous density, driven by an
// R-tree-like index over Aggregate Features (the AF-tree).
//
// DSHC is the step that breaks the paper's "chicken and egg" deadlock
// between partition generation and algorithm selection: because every
// output partition is density-homogeneous, the per-partition detector
// choice (Corollary 4.3) is well-defined, and the cost models can price
// each partition for cost-balanced allocation.
package dshc

import (
	"fmt"
	"math"

	"dod/internal/geom"
)

// areaEps guards density denominators for degenerate rectangles.
const areaEps = 1e-12

// AF is the Aggregate Feature of Def. 5.1: the summarized state of a
// cluster of mini buckets — its cardinality, bounding coordinates, and
// density. Because clusters are always rectangular unions of whole mini
// buckets (Def. 5.2 criterion 2), the bounding rectangle *is* the cluster.
type AF struct {
	NumPoints float64 // estimated cardinality (scaled sample counts)
	Rect      geom.Rect
}

// Density returns NumPoints divided by the covered volume (Def. 5.1).
func (a AF) Density() float64 {
	return a.NumPoints / a.Rect.AreaEps(areaEps)
}

// Add implements Def. 5.4: the AF of the merged cluster is the summed
// cardinality over the union bounding box.
func (a AF) Add(b AF) AF {
	return AF{NumPoints: a.NumPoints + b.NumPoints, Rect: a.Rect.Union(b.Rect)}
}

// Params are the DSHC merging thresholds of Def. 5.2.
type Params struct {
	// Tdiff is the maximum density difference for two clusters to merge
	// (criterion 1): an absolute difference, as in the paper. Equal
	// densities (including two empty regions) always merge.
	Tdiff float64
	// DensityClass, when set, replaces criterion 1 entirely: two clusters
	// are density-similar iff their densities map to the same class. The
	// DMT planner classifies by the Corollary 4.3 algorithm regimes, the
	// most task-relevant notion of "similar density": buckets cluster
	// together exactly when they would be served by the same detector.
	// This is also robust to the Poisson noise of low sample counts, which
	// defeats threshold-based similarity on sparse buckets.
	DensityClass func(density float64) int
	// TmaxPoints caps cluster cardinality (criterion 3), reflecting the
	// maximum number of points one reducer can hold in memory. Zero means
	// unlimited.
	TmaxPoints float64
	// MaxEntries is the AF-tree node fanout before a split; defaults to 8.
	MaxEntries int
}

func (p Params) withDefaults() Params {
	if p.TmaxPoints <= 0 {
		p.TmaxPoints = math.Inf(1)
	}
	if p.MaxEntries < 4 {
		p.MaxEntries = 8
	}
	return p
}

// CanMerge evaluates the merging criteria of Def. 5.2 for two clusters.
func (p Params) CanMerge(a, b AF) bool {
	if !p.densitySimilar(a.Density(), b.Density()) {
		return false // criterion 1: density similarity
	}
	if !a.Rect.UnionIsRectangular(b.Rect) {
		return false // criterion 2: rectangular shape (Def. 5.3)
	}
	if a.NumPoints+b.NumPoints >= p.TmaxPoints {
		return false // criterion 3: reducer memory bound
	}
	return true
}

// densitySimilar applies criterion 1 in the configured mode.
func (p Params) densitySimilar(d1, d2 float64) bool {
	if p.DensityClass != nil {
		return p.DensityClass(d1) == p.DensityClass(d2)
	}
	diff := math.Abs(d1 - d2)
	if diff == 0 {
		return true
	}
	return diff < p.Tdiff
}

// Cluster is one DSHC output partition.
type Cluster struct {
	AF
	ID int
}

func (c Cluster) String() string {
	return fmt.Sprintf("cluster %d: %.0f pts, density %.4g, %v", c.ID, c.NumPoints, c.Density(), c.Rect)
}

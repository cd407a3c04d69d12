// Package knn implements the kNN-based outlier semantics of Ramaswamy,
// Rastogi & Shim (the paper's reference [10]): the top-n outliers are the n
// points with the largest distance to their k-th nearest neighbor. The
// paper's related work ([11], [13]) distributes this definition on
// message-passing architectures with rings or broadcast solving sets; this
// package instead distributes it *exactly* on the DOD supporting-area
// framework in at most two MapReduce rounds:
//
//  1. Each partition computes every core point's kNN distance over
//     core ∪ support. If that distance is at most the supporting radius s,
//     all true neighbors were locally present and the value is exact;
//     otherwise it is an upper bound and the point becomes a candidate.
//  2. Each candidate is routed to every partition within its upper bound;
//     partitions return their k smallest distances to the candidate, and
//     the driver merges them into the exact kNN distance.
//
// The result is exact for any supporting radius; s only trades round-1
// replication against round-2 candidate traffic.
package knn

import (
	"fmt"
	"math"
	"sort"

	"dod/internal/geom"
)

// Params configure kNN outlier detection.
type Params struct {
	K int // which nearest neighbor's distance ranks a point
	N int // how many top outliers to report
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("knn: k must be >= 1, got %d", p.K)
	}
	if p.N < 1 {
		return fmt.Errorf("knn: n must be >= 1, got %d", p.N)
	}
	return nil
}

// Outlier is one ranked result.
type Outlier struct {
	ID   uint64
	Dist float64 // distance to the point's k-th nearest neighbor
}

// kthDistance returns the distance from point i of set to its k-th
// nearest other point (by ID) in tree, and ok=false when fewer than k such
// points exist. best, of capacity k, holds the query's heap.
func kthDistance(tree *geom.KDTree, set *geom.PointSet, i, k int, best []float64) (float64, bool) {
	best = tree.Nearest(set.CoordsAt(i), set.IDs[i], k, best[:0])
	if len(best) < k {
		return 0, false
	}
	return math.Sqrt(best[0]), true
}

// TopN returns the centralized top-n kNN outliers, ranked by descending
// kNN distance (ties by ascending ID). It needs more than k points, and it
// returns an error if a point has fewer than k others, which only repeated
// IDs can cause.
func TopN(points []geom.Point, params Params) ([]Outlier, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(points) <= params.K {
		return nil, fmt.Errorf("knn: need more than k=%d points, got %d", params.K, len(points))
	}
	set := geom.PointSetOf(points)
	tree := geom.NewKDTree(set)
	best := make([]float64, 0, params.K)
	outliers := make([]Outlier, 0, len(points))
	for i, p := range points {
		d, ok := kthDistance(tree, set, i, params.K, best)
		if !ok {
			return nil, fmt.Errorf("knn: point %d has fewer than %d neighbors", p.ID, params.K)
		}
		outliers = append(outliers, Outlier{ID: p.ID, Dist: d})
	}
	rank(outliers)
	if len(outliers) > params.N {
		outliers = outliers[:params.N]
	}
	return outliers, nil
}

// rank sorts by descending distance, ties by ascending ID (deterministic).
func rank(out []Outlier) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist > out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
}

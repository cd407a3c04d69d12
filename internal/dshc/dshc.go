package dshc

import (
	"math"

	"dod/internal/geom"
	"dod/internal/sample"
)

// Build runs DSHC over a mini-bucket histogram and returns the final
// clusters (partitions). It follows Sec. V-A's single scan: each mini
// bucket is either merged into an adjacent density-similar cluster —
// triggering recursive upward merging — or inserted as a new cluster.
//
// The returned clusters are pairwise interior-disjoint rectangles whose
// union tiles the histogram's domain, so every data point maps to exactly
// one cluster.
//
// Each bucket's rectangle is written into one scratch rectangle, which
// Insert does not retain, so the scan allocates per cluster, not per
// bucket.
func Build(hist *sample.Histogram, params Params) []Cluster {
	t := NewTree(params)
	grid := hist.Grid
	d := grid.Domain.Dim()
	bounds := make([]float64, 2*d)
	cell := geom.Rect{Min: bounds[:d:d], Max: bounds[d:]}
	for ord := 0; ord < grid.NumCells(); ord++ {
		grid.CellRectInto(ord, cell)
		t.Insert(AF{NumPoints: hist.BucketCount(ord), Rect: cell})
	}
	return t.Clusters()
}

// Insert runs the DSHC per-bucket step: search for merging candidates,
// merge into the most density-similar one and recursively merge upward, or
// insert the bucket as a new cluster. It retains nothing of bucket.Rect: a
// new cluster gets a copy, and a merge grows the target's own rectangle in
// place.
func (t *Tree) Insert(bucket AF) {
	lmc := t.searchAdjacent(bucket.Rect)

	// Filter the LMC by the merging criteria and pick the most
	// density-similar cluster (Sec. V-A, merge operation).
	target := t.bestCandidate(lmc, bucket)
	if target == nil {
		// Insert operation: new leaf. If the LMC is non-empty the new leaf
		// is attached to the parent of its most density-similar member;
		// otherwise to the least-enlargement parent found during search.
		var hint *node
		if best := mostSimilar(lmc, bucket); best != nil {
			hint = best.parent
		}
		t.insertLeaf(bucket, hint)
		return
	}

	// Merge operation: absorb the bucket, then recursively merge the
	// augmented cluster with other clusters until no merge applies.
	target.af.absorb(bucket)
	t.adjustUpward(target.parent)
	t.mergeUpward(target)
}

// bestCandidate returns the LMC member satisfying all merging criteria
// with the most similar density, or nil.
func (t *Tree) bestCandidate(lmc []*node, af AF) *node {
	var best *node
	bestDiff := math.Inf(1)
	for _, cand := range lmc {
		if !t.params.CanMerge(cand.af, af) {
			continue
		}
		diff := math.Abs(cand.af.Density() - af.Density())
		if diff < bestDiff {
			best, bestDiff = cand, diff
		}
	}
	return best
}

// mostSimilar returns the LMC member with the closest density regardless
// of the merging criteria (used only to pick an attachment parent).
func mostSimilar(lmc []*node, af AF) *node {
	var best *node
	bestDiff := math.Inf(1)
	for _, cand := range lmc {
		diff := math.Abs(cand.af.Density() - af.Density())
		if diff < bestDiff {
			best, bestDiff = cand, diff
		}
	}
	return best
}

// mergeUpward repeatedly merges the augmented cluster with adjacent
// mergeable clusters (the recursive merge of Sec. V-A).
func (t *Tree) mergeUpward(augmented *node) {
	for {
		lmc := t.searchAdjacent(augmented.af.Rect)
		var best *node
		bestDiff := math.Inf(1)
		for _, cand := range lmc {
			if cand == augmented {
				continue
			}
			if !t.params.CanMerge(cand.af, augmented.af) {
				continue
			}
			diff := math.Abs(cand.af.Density() - augmented.af.Density())
			if diff < bestDiff {
				best, bestDiff = cand, diff
			}
		}
		if best == nil {
			return
		}
		augmented.af.absorb(best.af)
		t.removeLeaf(best)
		t.adjustUpward(augmented.parent)
	}
}

package detect

import (
	"math/rand"

	"dod/internal/geom"
)

// nestedLoopDetector implements the Nested-Loop algorithm of Knorr & Ng as
// described in Sec. IV-A: for each point p, evaluate distances to the other
// points *in random order* until either k neighbors are found (p is an
// inlier) or the candidate pool is exhausted (p is an outlier).
//
// The random scan order is what Lemma 4.1's cost model assumes: the
// expected number of trials to find k neighbors is k/μ where μ is the
// probability a random point is a neighbor — hence cost grows with the
// sparsity of the partition. One seeded permutation of the candidate pool
// is drawn per Detect call; each core point scans the pool from a rotation
// derived from its ID, so per-point orders are decorrelated without a
// reshuffle per point, and — because the rotation depends only on the
// point, the seed, and the pool size — the Cell-Based detector's
// Nested-Loop fallback reproduces the identical scan for the identical
// point.
type nestedLoopDetector struct {
	seed int64
}

func (nestedLoopDetector) Kind() Kind { return NestedLoop }

// scanOffset returns the deterministic rotation of the shared permutation
// for one point.
func scanOffset(id uint64, n int) int {
	if n == 0 {
		return 0
	}
	return int(id % uint64(n) * 7919 % uint64(n)) // 7919 prime decorrelates nearby IDs
}

// randomScan counts neighbors of point pi among the set (excluding pi
// itself), visiting candidates in the rotated permutation and stopping at
// limit. r2 is the squared distance threshold. The loop body touches only
// the set's two flat arrays and the shared permutation — no per-candidate
// allocation, pointer chasing, or modulo: the rotation is realized as two
// linear passes over the permutation (order[offset:], then order[:offset]),
// which visit the identical candidate sequence.
func randomScan(all *geom.PointSet, pi int, order []int, r2 float64, limit int, stats *Stats) int {
	n := all.Len()
	id := all.IDs[pi]
	offset := scanOffset(id, n)
	neighbors := 0
	if all.Dim == 2 {
		neighbors = scanSegment2(all, pi, id, order[offset:], r2, limit, neighbors, stats)
		if neighbors < limit {
			neighbors = scanSegment2(all, pi, id, order[:offset], r2, limit, neighbors, stats)
		}
		return neighbors
	}
	neighbors = scanSegment(all, pi, id, order[offset:], r2, limit, neighbors, stats)
	if neighbors < limit {
		neighbors = scanSegment(all, pi, id, order[:offset], r2, limit, neighbors, stats)
	}
	return neighbors
}

// scanSegment visits one contiguous run of the permutation.
func scanSegment(all *geom.PointSet, pi int, id uint64, seg []int, r2 float64, limit, neighbors int, stats *Stats) int {
	comps := int64(0)
	for _, qi := range seg {
		if neighbors >= limit {
			break
		}
		if all.IDs[qi] == id {
			continue
		}
		comps++
		if all.Within2(pi, qi, r2) {
			neighbors++
		}
	}
	stats.DistComps += comps
	return neighbors
}

// scanSegment2 is scanSegment's 2D specialization: the query coordinates
// live in registers and the distance test is fully inlined (same
// accumulation order as Within2, so verdicts are bit-identical).
func scanSegment2(all *geom.PointSet, pi int, id uint64, seg []int, r2 float64, limit, neighbors int, stats *Stats) int {
	ids, coords := all.IDs, all.Coords
	px, py := coords[2*pi], coords[2*pi+1]
	comps := int64(0)
	for _, qi := range seg {
		if neighbors >= limit {
			break
		}
		if ids[qi] == id {
			continue
		}
		comps++
		dx := px - coords[2*qi]
		dy := py - coords[2*qi+1]
		if dx*dx+dy*dy <= r2 {
			neighbors++
		}
	}
	stats.DistComps += comps
	return neighbors
}

func (d nestedLoopDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (d nestedLoopDetector) prepare(all *geom.PointSet, nCore int, params Params, _ *Stats) (int, func(lo, hi int, t *Result)) {
	order := rand.New(rand.NewSource(d.seed)).Perm(all.Len())
	r2 := params.R * params.R
	return nCore, func(lo, hi int, t *Result) {
		for i := lo; i < hi; i++ {
			if randomScan(all, i, order, r2, params.K, &t.Stats) < params.K {
				t.OutlierIDs = append(t.OutlierIDs, all.IDs[i])
			}
		}
	}
}

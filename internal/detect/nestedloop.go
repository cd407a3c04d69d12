package detect

import (
	"math/rand"
	"sync"

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
// sparsity of the partition. The candidate pool is gathered in scan order
// once per Detect call, under one seeded permutation; each core point
// sweeps the pool from a rotation derived from its ID, so per-point orders
// are decorrelated without a reshuffle per point, and — because the
// rotation depends only on the point, the seed, and the pool size — the
// Cell-Based detector's Nested-Loop fallback reproduces the identical scan
// for the identical point.
type nestedLoopDetector struct {
	seed int64
}

func (nestedLoopDetector) Kind() Kind { return NestedLoop }

// scanOffset returns the deterministic rotation of the shared scan order
// for one point.
func scanOffset(id uint64, n int) int {
	if n == 0 {
		return 0
	}
	return int(id % uint64(n) * 7919 % uint64(n)) // 7919 prime decorrelates nearby IDs
}

// scanRands recycles scanPool's generators. Seed puts a generator in
// exactly the state rand.New(rand.NewSource(seed)) starts in, without
// allocating another 5 KB source per partition.
var scanRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// scanPool gathers all into scan order: row j of the pool is point
// order[j], where order is the seeded permutation rand.Perm(n) draws. The
// permutation is drawn straight into the pool's ID column (the same swaps
// as Perm, so the same order) and each row then replaces its index with the
// point's ID and coordinates, so no []int outlives the call.
func scanPool(all *geom.PointSet, seed int64) geom.PointSet {
	n, d := all.Len(), all.Dim
	pool := geom.PointSet{Dim: d, IDs: make([]uint64, n), Coords: make([]float64, n*d)}
	rng := scanRands.Get().(*rand.Rand)
	rng.Seed(seed)
	for i := range pool.IDs {
		j := rng.Intn(i + 1)
		pool.IDs[i] = pool.IDs[j]
		pool.IDs[j] = uint64(i)
	}
	scanRands.Put(rng)
	for j, src := range pool.IDs {
		row, from := pool.Coords[j*d:(j+1)*d], all.CoordsAt(int(src))
		for k := range row {
			row[k] = from[k]
		}
		pool.IDs[j] = all.IDs[src]
	}
	return pool
}

// randomScan counts neighbors of point pi of all among the pool (skipping
// candidates with pi's ID), in the pool's order rotated by pi's
// scanOffset, and stops at limit. r2 is the squared distance threshold.
// The rotation is two linear sweeps, pool[offset:] then pool[:offset], of
// one early-exit counting kernel, which evaluates the same distances in
// the same order as a candidate-at-a-time scan and stops at the same
// candidate.
func randomScan(all *geom.PointSet, pi int, pool geom.PointSet, r2 float64, limit int, stats *Stats) int {
	n := pool.Len()
	q, id := all.CoordsAt(pi), all.IDs[pi]
	offset := scanOffset(id, n)
	neighbors, comps := pool.CountWithin2Coords(q, id, offset, n, r2, limit)
	if neighbors < limit {
		more, c := pool.CountWithin2Coords(q, id, 0, offset, r2, limit-neighbors)
		neighbors += more
		comps += c
	}
	stats.DistComps += int64(comps)
	return neighbors
}

func (d nestedLoopDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (d nestedLoopDetector) prepare(all *geom.PointSet, nCore int, params Params, _ *Stats) (int, func(lo, hi int, t *Result)) {
	pool := scanPool(all, d.seed)
	r2 := params.R * params.R
	return nCore, func(lo, hi int, t *Result) {
		for i := lo; i < hi; i++ {
			if randomScan(all, i, pool, r2, params.K, &t.Stats) < params.K {
				t.OutlierIDs = append(t.OutlierIDs, all.IDs[i])
			}
		}
	}
}

package detect

import (
	"dod/internal/geom"
	"dod/internal/pgraph"
)

// pgraphDetector answers Def. 2.2 through a navigable proximity graph
// (internal/pgraph): the graph is built once per partition over core ∪
// support, then each core point is classified by a best-first walk that
// stops as soon as k verified neighbors certify it an inlier. Points the
// walk cannot certify fall back to a verified linear scan (early-exiting
// at k like Nested-Loop), so verdicts are exact — bit-identical to
// BruteForce on every input. The seed fixes the
// insertion order, making the graph (and therefore every DistComps count)
// deterministic.
type pgraphDetector struct{ seed int64 }

func (pgraphDetector) Kind() Kind { return PGraph }

func (d pgraphDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

// prepare builds the graph once, sequentially and seeded; scans only walk
// it. Each point's walk starts from a reset Scratch, so its verdict and
// distance-computation count are independent of which scan runs it.
func (d pgraphDetector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	g, buildComps := pgraph.Build(all, d.seed)
	st.DistComps += buildComps
	st.PointsIndexed += int64(all.Len())
	n := all.Len()
	r2 := params.R * params.R
	return nCore, func(lo, hi int, t *Result) {
		sc := pgraph.NewScratch(n)
		for i := lo; i < hi; i++ {
			_, certified, comps := g.CountWithin(i, r2, params.K, sc)
			t.Stats.DistComps += comps
			if certified {
				continue // >= K verified neighbors: inlier, exactly
			}
			// Uncertified: the walk's count is only a lower bound. Settle the
			// verdict with Nested-Loop's early-exit count, swept from row 0
			// of the set, which stops as soon as K neighbors confirm an
			// inlier; only true outliers pay the full pass.
			neighbors, compared := all.CountWithin2Coords(all.CoordsAt(i), all.IDs[i], 0, n, r2, params.K)
			t.Stats.DistComps += int64(compared)
			if neighbors < params.K {
				t.OutlierIDs = append(t.OutlierIDs, all.IDs[i])
			}
		}
	}
}

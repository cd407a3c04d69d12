package detect

import "dod/internal/geom"

// kdTreeDetector is an index-based detector beyond the paper's candidate
// set: it builds a kd-tree (geom.KDTree) over core ∪ support and answers
// each core point's neighbor-count query with a pruned range count that
// terminates as soon as k neighbors are confirmed. It trades the Cell-Based
// detector's O(1) cell pruning for logarithmic spatial pruning that does
// not degrade with extreme sparsity, and serves as the "future work:
// richer algorithm candidate sets" extension discussed in Sec. I.
type kdTreeDetector struct{}

func (kdTreeDetector) Kind() Kind { return KDTree }

func (d kdTreeDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (kdTreeDetector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	tree := geom.NewKDTree(all)
	st.PointsIndexed += int64(all.Len())
	r2 := params.R * params.R
	// Queries only read the tree, so concurrent scans share one.
	return nCore, func(lo, hi int, t *Result) {
		for i := lo; i < hi; i++ {
			count, compared := tree.CountWithin(all.CoordsAt(i), all.IDs[i], r2, params.K)
			t.Stats.DistComps += int64(compared)
			if count < params.K {
				t.OutlierIDs = append(t.OutlierIDs, all.IDs[i])
			}
		}
	}
}

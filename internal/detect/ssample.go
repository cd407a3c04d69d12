package detect

import (
	"dod/internal/geom"
	"dod/internal/ssample"
)

// ssampleDetector estimates Def. 2.2 verdicts from a sensitivity-weighted
// sample of the pool (internal/ssample) instead of scanning it — linear
// time in |core| + |pool| with a provable per-point error bound, but
// APPROXIMATE: verdicts are not guaranteed identical to BruteForce. The
// kind reports Approximate() == true and is only planner-eligible when the
// caller sets AllowApprox. The seed fixes the pilot and the weighted
// draws, so output (and DistComps) is deterministic.
type ssampleDetector struct{ seed int64 }

func (ssampleDetector) Kind() Kind { return SSample }

func (d ssampleDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

// prepare builds the plan (pilot + weighted draws) once, sequentially;
// scans score disjoint core ranges against the same frozen sample.
func (d ssampleDetector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	pl := ssample.BuildPlan(all, ssample.Params{R: params.R, K: params.K}, d.seed)
	st.DistComps += pl.BuildComp
	return nCore, func(lo, hi int, t *Result) {
		scores, comps := pl.ScoreRange(nil, lo, hi)
		t.Stats.DistComps += comps
		for _, s := range scores {
			if s.Outlier {
				t.OutlierIDs = append(t.OutlierIDs, s.ID)
			}
		}
	}
}

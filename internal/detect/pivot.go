package detect

import (
	"math"
	"math/rand"

	"dod/internal/geom"
)

// pivotDetector is a DOLPHIN-style pivot-based detector (Angiulli &
// Fassetti, TKDD 2009 — the paper's reference [4]): a small set of pivot
// points is chosen, every candidate's distance to each pivot is
// precomputed, and the triangle inequality |d(p,v) − d(q,v)| ≤ d(p,q)
// prunes candidates that cannot be neighbors before any exact distance is
// evaluated. The paper excludes it from the distributed candidate set
// because the original relies on a global index; as a *per-partition*
// detector it needs no global state, so this implementation restores it as
// an extension candidate.
type pivotDetector struct {
	seed int64
}

func (pivotDetector) Kind() Kind { return Pivot }

// numPivots balances precompute cost (n·m distances) against filter power.
const numPivots = 8

func (d pivotDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (d pivotDetector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	n := all.Len()
	m := numPivots
	if m > n {
		m = n
	}
	// Seeded pivot choice; distances to pivots double as the index, stored
	// point-major (pivDist[q*m : q*m+m] = point q's distances to every
	// pivot) so the triangle-inequality filter below reads one contiguous
	// stripe per candidate.
	rng := rand.New(rand.NewSource(d.seed))
	pivotIdx := rng.Perm(n)[:m]
	pivDist := make([]float64, n*m)
	maxPiv := 0.0
	for i, pi := range pivotIdx {
		for j := 0; j < n; j++ {
			st.DistComps++
			pivDist[j*m+i] = math.Sqrt(all.Dist2Coords(j, all.CoordsAt(pi)))
			maxPiv = math.Max(maxPiv, pivDist[j*m+i])
		}
		st.PointsIndexed += int64(n)
	}
	order := rng.Perm(n)
	r2 := params.R * params.R
	// The pivot distances and the neighbor test both round, so a pair the
	// test accepts at ≈ r can show |d(p,v) − d(q,v)| a few ulps above r.
	// Filtering only beyond r plus a bound on those rounding errors keeps
	// every verdict identical to BruteForce's.
	limit := params.R + float64(all.Dim+4)*0x1p-50*(params.R+2*maxPiv)

	return nCore, func(lo, hi int, t *Result) {
		var pruned, comps int64
		for p := lo; p < hi; p++ {
			// A core point's own pivot distances sit at its set index — the
			// set replaces the old ID-to-position map.
			id := all.IDs[p]
			pRow := pivDist[p*m : p*m+m]
			neighbors := 0
			offset := scanOffset(id, n)
			// Two linear passes realize the rotated permutation without a
			// modulo per candidate (same visit sequence as order[(j+offset)%n]).
			for _, seg := range [2][]int{order[offset:], order[:offset]} {
				for _, qi := range seg {
					if neighbors >= params.K {
						break
					}
					if all.IDs[qi] == id {
						continue
					}
					// Triangle-inequality filter: if any pivot separates p and
					// q by more than limit, q cannot be a neighbor.
					qRow := pivDist[qi*m : qi*m+m]
					filtered := false
					for i := 0; i < m; i++ {
						if math.Abs(pRow[i]-qRow[i]) > limit {
							filtered = true
							break
						}
					}
					if filtered {
						pruned++ // counts filtered candidates
						continue
					}
					comps++
					if all.Within2(p, qi, r2) {
						neighbors++
					}
				}
			}
			if neighbors < params.K {
				t.OutlierIDs = append(t.OutlierIDs, id)
			}
		}
		t.Stats.CellsPruned += pruned
		t.Stats.DistComps += comps
	}
}

package ssample

import (
	"math"
	"testing"

	"dod/internal/geom"
	"dod/internal/synth"
)

func setOf(pts []geom.Point) *geom.PointSet {
	s := geom.NewPointSet(pts[0].Dim(), len(pts))
	for _, p := range pts {
		s.Append(p)
	}
	return s
}

func TestSampleSize(t *testing.T) {
	// Hoeffding: ceil(ln(2/0.01) / (2·0.1²)) = ceil(264.9) = 265.
	if got := SampleSize(100000, 0.1, 0.01); got != 265 {
		t.Fatalf("SampleSize = %d, want 265", got)
	}
	if got := SampleSize(10, 0.1, 0.01); got != 10 {
		t.Fatalf("small n not clamped: %d", got)
	}
	if got := SampleSize(100000, 1, 0.5); got != 32 {
		t.Fatalf("floor not applied: %d", got)
	}
	if got := SampleSize(0, 0.1, 0.01); got != 0 {
		t.Fatalf("n=0: %d", got)
	}
}

func TestScoreSetDeterministic(t *testing.T) {
	pts := synth.GaussianCloud(2000, 4, 11)
	s := setOf(pts)
	p := Params{R: 10, K: 4}
	a := ScoreSet(s, s.Len(), p, 77)
	b := ScoreSet(s, s.Len(), p, 77)
	if a.DistComps != b.DistComps || a.SampleSize != b.SampleSize {
		t.Fatalf("stats diverge: %+v vs %+v", a, b)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("score %d diverges: %+v vs %+v", i, a.Scores[i], b.Scores[i])
		}
	}
}

// TestScoreRangeMatchesScoreSet: tiling the scoring over ranges against
// one frozen plan must reproduce the sequential pass exactly — the
// property the parallel detector path relies on.
func TestScoreRangeMatchesScoreSet(t *testing.T) {
	pts := synth.GaussianCloud(1500, 4, 3)
	s := setOf(pts)
	p := Params{R: 10, K: 4}
	whole := ScoreSet(s, s.Len(), p, 5)

	pl := BuildPlan(s, p, 5)
	var tiled []Score
	var comps int64
	for lo := 0; lo < s.Len(); lo += 400 {
		hi := lo + 400
		if hi > s.Len() {
			hi = s.Len()
		}
		part, c := pl.ScoreRange(nil, lo, hi)
		tiled = append(tiled, part...)
		comps += c
	}
	if pl.BuildComp+comps != whole.DistComps {
		t.Fatalf("comps diverge: %d vs %d", pl.BuildComp+comps, whole.DistComps)
	}
	for i := range whole.Scores {
		if whole.Scores[i] != tiled[i] {
			t.Fatalf("score %d diverges", i)
		}
	}
}

// TestAccuracyOnSeparatedWorkload: on a workload whose outliers are far
// from every cluster, the estimator must agree with the exact verdict on
// the overwhelming majority of points and flag the planted points.
func TestAccuracyOnSeparatedWorkload(t *testing.T) {
	pts, planted := synth.HighDimPlanted(3000, 16, 4, 0.02, 21)
	s := setOf(pts)
	p := Params{R: 4, K: 4}
	res := ScoreSet(s, s.Len(), p, 9)
	if len(res.Scores) != s.Len() {
		t.Fatalf("scored %d of %d", len(res.Scores), s.Len())
	}

	plantedSet := map[uint64]bool{}
	for _, id := range planted {
		plantedSet[id] = true
	}
	missed, extra := 0, 0
	for _, sc := range res.Scores {
		if sc.Confidence <= 0.5 || sc.Confidence > 1 || math.IsNaN(sc.Confidence) {
			t.Fatalf("confidence %g out of (0.5, 1]", sc.Confidence)
		}
		if plantedSet[sc.ID] && !sc.Outlier {
			missed++
		}
		if !plantedSet[sc.ID] && sc.Outlier {
			extra++
		}
	}
	if missed > 0 {
		// Planted points are isolated: a weighted sample that retains
		// isolated points with near-certainty must estimate ~0 neighbors.
		t.Fatalf("missed %d of %d planted outliers", missed, len(planted))
	}
	// Cluster stragglers may legitimately be outliers; only flag gross
	// disagreement (> 2% of the pool).
	if extra > s.Len()/50 {
		t.Fatalf("flagged %d non-planted points (pool %d)", extra, s.Len())
	}
}

// TestEstimatorUnbiasedOnUniform: averaged over many seeds, the estimated
// neighbor count of a fixed point must approach its true count.
func TestEstimatorUnbiasedOnUniform(t *testing.T) {
	pts := synth.GaussianCloud(1200, 2, 4)
	s := setOf(pts)
	p := Params{R: 10, K: 4}
	truth, _ := s.CountWithin2Coords(s.CoordsAt(0), s.IDs[0], 0, s.Len(), 100, s.Len())

	var sum float64
	const rounds = 40
	for seed := int64(0); seed < rounds; seed++ {
		res := ScoreSet(s, 1, p, seed)
		sum += res.Scores[0].EstNeighbors
	}
	avg := sum / rounds
	if truth == 0 {
		t.Skip("degenerate: point 0 has no neighbors")
	}
	if rel := math.Abs(avg-float64(truth)) / float64(truth); rel > 0.25 {
		t.Fatalf("estimator biased: avg %.1f vs truth %d (rel %.2f)", avg, truth, rel)
	}
}

// Result is the output of one ScoreSet pass.
type Result struct {
	Scores     []Score
	DistComps  int64
	SampleSize int // weighted draws actually used
}

// ScoreSet estimates the neighbor count of each of the first nCore points
// of all against the full set (core ∪ support), and classifies them as
// outliers (< K neighbors within R). Deterministic for a fixed seed.
func ScoreSet(all *geom.PointSet, nCore int, params Params, seed int64) Result {
	var res Result
	if nCore == 0 || all.Len() == 0 {
		return res
	}
	pl := BuildPlan(all, params, seed)
	res.SampleSize = pl.SampleSizeUsed()
	scores, comps := pl.ScoreRange(make([]Score, 0, nCore), 0, nCore)
	res.Scores = scores
	res.DistComps = pl.BuildComp + comps
	return res
}

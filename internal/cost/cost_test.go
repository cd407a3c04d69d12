package cost

import (
	"math"
	"math/rand"
	"testing"

	"dod/internal/detect"
	"dod/internal/geom"
)

var paperParams = detect.Params{R: 5, K: 4} // the r, k used throughout Sec. IV

func profile2D(n, area float64) PartitionProfile {
	return PartitionProfile{Cardinality: n, Area: area, Dim: 2}
}

func TestDensity(t *testing.T) {
	p := profile2D(1000, 100)
	if got := p.Density(); got != 10 {
		t.Errorf("Density = %g, want 10", got)
	}
	// Degenerate rects must stay finite: +Inf would turn into NaN when the
	// models multiply density by a vanishing cell volume, making every
	// downstream cost comparison undefined.
	degenerate := profile2D(10, 0)
	if got := degenerate.Density(); got != math.MaxFloat64 {
		t.Errorf("zero-area density = %g, want MaxFloat64", got)
	}
	if got := profile2D(0, 0).Density(); got != 0 {
		t.Errorf("empty degenerate density = %g, want 0", got)
	}
}

func TestNestedLoopLemma41(t *testing.T) {
	// Cost(D) = |D|·A(D)·k / A(p) when the cap does not bind.
	p := profile2D(10000, 1000)
	want := 10000 * 1000 * 4 / (math.Pi * 25)
	if got := NestedLoop(p, paperParams); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("NestedLoop = %g, want %g", got, want)
	}
	if got := NestedLoopUncapped(p, paperParams); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("NestedLoopUncapped = %g, want %g", got, want)
	}
}

func TestNestedLoopSparseCostExceedsDense(t *testing.T) {
	// The D-Sparse vs D-Dense experiment of Fig. 4: same cardinality,
	// 4x the domain area → strictly higher cost.
	dense := profile2D(10000, 2500)
	sparse := profile2D(10000, 10000)
	cd, cs := NestedLoop(dense, paperParams), NestedLoop(sparse, paperParams)
	if cs <= cd {
		t.Errorf("sparse cost %g should exceed dense cost %g", cs, cd)
	}
	// With the cap not binding, the ratio should be exactly the area ratio.
	if ratio := cs / cd; math.Abs(ratio-4) > 1e-9 {
		t.Errorf("cost ratio = %g, want 4", ratio)
	}
}

func TestNestedLoopCap(t *testing.T) {
	// Extremely sparse: expected trials k/μ exceed |D|; capped at |D|².
	p := profile2D(100, 1e9)
	if got := NestedLoop(p, paperParams); got != 100*100 {
		t.Errorf("capped cost = %g, want 10000", got)
	}
	if got := NestedLoopUncapped(p, paperParams); got <= 100*100 {
		t.Errorf("uncapped cost = %g, want > 10000", got)
	}
}

func TestNestedLoopDegenerateArea(t *testing.T) {
	p := profile2D(50, 0)
	if got := NestedLoop(p, paperParams); got != 50*4 {
		t.Errorf("zero-area cost = %g, want |D|·k = 200", got)
	}
}

func TestCellCaseThresholds(t *testing.T) {
	// 2D with r=5, k=4: cell area r²/8 = 3.125.
	// Dense-inlier requires 9·3.125·density >= 4 → density >= 0.1422...
	// Sparse-outlier requires 49·3.125·density < 4 → density < 0.02612...
	denseCut := 4.0 / (9.0 / 8.0 * 25.0)
	sparseCut := 4.0 / (49.0 / 8.0 * 25.0)

	mk := func(density float64) PartitionProfile { return profile2D(density*1000, 1000) }

	if got := cellCase(mk(denseCut*1.01), paperParams); got != CaseDenseInlier {
		t.Errorf("just above dense cutoff: %v", got)
	}
	if got := cellCase(mk(denseCut*0.99), paperParams); got != CaseIntermediate {
		t.Errorf("just below dense cutoff: %v", got)
	}
	if got := cellCase(mk(sparseCut*0.99), paperParams); got != CaseSparseOutlier {
		t.Errorf("just below sparse cutoff: %v", got)
	}
	if got := cellCase(mk(sparseCut*1.01), paperParams); got != CaseIntermediate {
		t.Errorf("just above sparse cutoff: %v", got)
	}
}

func TestCellBasedLinearInExtremes(t *testing.T) {
	dense := profile2D(100000, 100) // density 1000, far above cutoff
	if got := CellBased(dense, paperParams); got != 100000 {
		t.Errorf("dense Cell-Based cost = %g, want |D|", got)
	}
	sparse := profile2D(100, 1e9)
	if got := CellBased(sparse, paperParams); got != 100 {
		t.Errorf("sparse Cell-Based cost = %g, want |D|", got)
	}
}

func TestCellBasedIntermediateAddsIndexing(t *testing.T) {
	p := profile2D(10000, 200000) // density 0.05: intermediate regime
	if cellCase(p, paperParams) != CaseIntermediate {
		t.Fatal("profile not in intermediate regime")
	}
	nl := NestedLoop(p, paperParams)
	cb := CellBased(p, paperParams)
	if cb != p.Cardinality+nl {
		t.Errorf("intermediate Cell-Based = %g, want |D| + NL = %g", cb, p.Cardinality+nl)
	}
	if cb <= nl {
		t.Error("Cell-Based should cost more than Nested-Loop in the intermediate regime")
	}
}

func TestSelectMatchesCorollary43(t *testing.T) {
	cases := []struct {
		name    string
		density float64
		want    detect.Kind
	}{
		{"very dense", 10, detect.CellBased},
		{"very sparse", 0.001, detect.CellBased},
		{"intermediate", 0.05, detect.NestedLoop},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := profile2D(tc.density*10000, 10000)
			if got := Select(p, paperParams); got != tc.want {
				t.Errorf("Select(density=%g) = %v, want %v", tc.density, got, tc.want)
			}
		})
	}
}

func TestSelectAgreesWithModelComparison(t *testing.T) {
	// Corollary 4.3 should coincide with direct cost-model comparison over
	// the paper's candidate set across the density sweep of Fig. 5.
	for _, density := range []float64{0.001, 0.01, 0.03, 0.05, 0.1, 0.2, 1, 10, 100} {
		p := profile2D(10000, 10000/density)
		bySelect := Select(p, paperParams)
		byCost := SelectFrom([]detect.Kind{detect.NestedLoop, detect.CellBased}, p, paperParams)
		if bySelect != byCost {
			// The two can legitimately differ only when costs tie; verify.
			nl, cb := NestedLoop(p, paperParams), CellBased(p, paperParams)
			if nl != cb {
				t.Errorf("density %g: Select=%v but cheapest=%v (NL=%g CB=%g)",
					density, bySelect, byCost, nl, cb)
			}
		}
	}
}

func TestSelectFromHonorsCandidateOrderOnTies(t *testing.T) {
	p := profile2D(0, 100) // zero cardinality: every model returns 0
	got := SelectFrom([]detect.Kind{detect.CellBased, detect.NestedLoop}, p, paperParams)
	if got != detect.CellBased {
		t.Errorf("tie should go to first candidate, got %v", got)
	}
}

func TestEstimateAllKinds(t *testing.T) {
	p := profile2D(1000, 1000)
	for _, kind := range []detect.Kind{detect.BruteForce, detect.NestedLoop, detect.CellBased, detect.KDTree} {
		if got := Estimate(kind, p, paperParams); got <= 0 || math.IsNaN(got) {
			t.Errorf("Estimate(%v) = %g", kind, got)
		}
	}
	if Estimate(detect.BruteForce, p, paperParams) != 1000*1000 {
		t.Error("brute force model should be quadratic")
	}
}

func TestEstimatePanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Estimate(detect.NestedLoop, PartitionProfile{Cardinality: -1, Area: 1, Dim: 2}, paperParams)
}

func TestSelectFromEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectFrom(nil, profile2D(10, 10), paperParams)
}

func TestCellCaseString(t *testing.T) {
	if CaseDenseInlier.String() != "dense-inlier" ||
		CaseSparseOutlier.String() != "sparse-outlier" ||
		CaseIntermediate.String() != "intermediate" {
		t.Error("CellCaseKind.String mismatch")
	}
}

// TestModelPredictsMeasuredOrdering validates the cost models against the
// real detectors: across a density sweep, whenever the models say one
// detector is at least 3x cheaper, the measured distance-computation counts
// must agree on the ordering. This ties Sec. IV's theory to the
// implementation.
func TestModelPredictsMeasuredOrdering(t *testing.T) {
	const n = 4000
	for _, density := range []float64{0.01, 0.05, 1, 20} {
		area := n / density
		side := math.Sqrt(area)
		pts := uniformPoints(n, side)
		prof := profile2D(n, area)

		nlModel := Estimate(detect.NestedLoop, prof, paperParams)
		cbModel := Estimate(detect.CellBased, prof, paperParams)

		nlMeasured := detect.New(detect.NestedLoop, 3).Detect(pts, nil, paperParams).Stats.Cost()
		cbMeasured := detect.New(detect.CellBased, 0).Detect(pts, nil, paperParams).Stats.Cost()

		switch {
		case nlModel*3 < cbModel && nlMeasured >= cbMeasured:
			t.Errorf("density %g: model favors NL (%g vs %g) but measured %d >= %d",
				density, nlModel, cbModel, nlMeasured, cbMeasured)
		case cbModel*3 < nlModel && cbMeasured >= nlMeasured:
			t.Errorf("density %g: model favors CB (%g vs %g) but measured %d >= %d",
				density, cbModel, nlModel, cbMeasured, nlMeasured)
		}
	}
}

func uniformPoints(n int, side float64) []geom.Point {
	rng := rand.New(rand.NewSource(31))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * side, rng.Float64() * side}}
	}
	return pts
}

// NestedLoopUncapped is Lemma 4.1 verbatim, with no |D| cap on the
// per-point trial count.
func NestedLoopUncapped(p PartitionProfile, params detect.Params) float64 {
	return p.Cardinality * expectedTrials(p, params)
}

// SelectFrom generalizes Corollary 4.3 to an arbitrary candidate set: it
// returns the kind with the minimal modeled cost (Def. 3.4's optimal
// algorithm plan, applied per partition). Ties go to the earlier candidate.
func SelectFrom(candidates []detect.Kind, p PartitionProfile, params detect.Params) detect.Kind {
	if len(candidates) == 0 {
		panic("cost: empty candidate set")
	}
	best := candidates[0]
	bestCost := Estimate(best, p, params)
	for _, kind := range candidates[1:] {
		if c := Estimate(kind, p, params); c < bestCost {
			best, bestCost = kind, c
		}
	}
	return best
}

// TestGridEnumExcessL2Ring: both grid tactics are charged the walk of the
// L2 block, 2⌈2√d⌉+1 cells a side — Cell-Based-L2 scans its ring, and
// both tactics' prune counts its points. The walk is priced at zero
// through d = 3 for every pool size, so no 1-, 2- or 3-D plan moves for
// it, and from d = 4 on where the pool does not cover it.
func TestGridEnumExcessL2Ring(t *testing.T) {
	pools := []float64{0, 1, 100, 728, 729, 730, 1e4, 1e6, 1e9}
	for d := 1; d <= 12; d++ {
		if side := BlockSide(d); side != 2*detect.L2Radius(d)+1 {
			t.Fatalf("d=%d: block side %d", d, side)
		}
		for _, pool := range pools {
			if got := GridEnumExcess(d, pool); d <= 3 && got != 0 {
				t.Errorf("d=%d pool %g: excess %g, want 0", d, pool, got)
			}
		}
	}
	// d = 4: 9^4 cells.
	if got, want := GridEnumExcess(4, 100), (6561.0-729)/8; got != want {
		t.Errorf("d=4 excess %g, want %g", got, want)
	}
}

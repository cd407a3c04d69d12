package cost

import (
	"math"
	"testing"

	"dod/internal/detect"
)

func TestRegimeCuts2D(t *testing.T) {
	sparse, dense := regimeCuts(2, paperParams)
	// Cell volume r²/8 = 3.125; L1 = 9 cells, L2 = 49 cells.
	wantSparse := 4.0 / (49 * 3.125)
	wantDense := 4.0 / (9 * 3.125)
	if math.Abs(sparse-wantSparse) > 1e-12 || math.Abs(dense-wantDense) > 1e-12 {
		t.Errorf("regimeCuts = (%g, %g), want (%g, %g)", sparse, dense, wantSparse, wantDense)
	}
	if sparse >= dense {
		t.Error("sparse cut must be below dense cut")
	}
}

func TestRegimeCutsMatchCellCase(t *testing.T) {
	// The cuts must agree with cellCase's classification at every density.
	sparse, dense := regimeCuts(2, paperParams)
	for _, density := range []float64{sparse / 2, sparse * 1.01, dense * 0.99, dense * 1.01, dense * 100} {
		p := profile2D(density*1e6, 1e6)
		got := cellCase(p, paperParams)
		var want CellCaseKind
		switch {
		case density < sparse:
			want = CaseSparseOutlier
		case density < dense:
			want = CaseIntermediate
		default:
			want = CaseDenseInlier
		}
		if got != want {
			t.Errorf("density %g: cellCase %v, cuts say %v", density, got, want)
		}
	}
}

func TestRegimeClass(t *testing.T) {
	class := RegimeClass(2, paperParams)
	sparse, dense := regimeCuts(2, paperParams)
	cases := []struct {
		density float64
		want    int
	}{
		{0, 0},
		{sparse / 2, 1},
		{(sparse + dense) / 2, 2},
		{dense * 2, 3},
	}
	for _, tc := range cases {
		if got := class(tc.density); got != tc.want {
			t.Errorf("class(%g) = %d, want %d", tc.density, got, tc.want)
		}
	}
}

func TestCellBasedL2Model(t *testing.T) {
	// Extreme regimes: linear like CellBased.
	dense := profile2D(1e5, 100)
	if got := CellBasedL2(dense, paperParams); got != 1e5 {
		t.Errorf("dense CBL2 = %g, want |D|", got)
	}
	sparse := profile2D(10, 1e9)
	if got := CellBasedL2(sparse, paperParams); got != 10 {
		t.Errorf("sparse CBL2 = %g, want |D|", got)
	}
	// Intermediate: strictly cheaper than the paper's CellBased model
	// (ring-bounded fallback beats the full Nested-Loop term).
	mid := profile2D(10000, 200000)
	if cellCase(mid, paperParams) != CaseIntermediate {
		t.Fatal("fixture not intermediate")
	}
	cbl2, cb := CellBasedL2(mid, paperParams), CellBased(mid, paperParams)
	if cbl2 >= cb {
		t.Errorf("intermediate CBL2 %g should be below CB %g", cbl2, cb)
	}
	if cbl2 <= mid.Cardinality {
		t.Errorf("intermediate CBL2 %g should exceed the linear term", cbl2)
	}
}

func TestPivotModel(t *testing.T) {
	p := profile2D(10000, 100000)
	pivot := Estimate(detect.Pivot, p, paperParams)
	nl := Estimate(detect.NestedLoop, p, paperParams)
	if pivot <= 8*p.Cardinality {
		t.Errorf("pivot model %g must include the precompute term", pivot)
	}
	if pivot >= nl+8*p.Cardinality {
		t.Errorf("pivot model %g should discount the scan versus NL %g", pivot, nl)
	}
}

func TestEstimateKDTreeSmall(t *testing.T) {
	tiny := PartitionProfile{Cardinality: 1, Area: 10, Dim: 2}
	if got := Estimate(detect.KDTree, tiny, paperParams); got != 1 {
		t.Errorf("KDTree tiny estimate = %g, want 1", got)
	}
}

func TestEstimateUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Estimate(detect.Kind(99), profile2D(10, 10), paperParams)
}

func TestNestedLoopUncappedExceedsCappedWhenSparse(t *testing.T) {
	p := profile2D(100, 1e12)
	if NestedLoopUncapped(p, paperParams) <= NestedLoop(p, paperParams) {
		t.Error("uncapped should exceed capped on ultra-sparse data")
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []PartitionProfile{
		{Cardinality: -1, Area: 1, Dim: 2},
		{Cardinality: 1, Area: -1, Dim: 2},
		{Cardinality: 1, Area: 1, Dim: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d accepted: %+v", i, p)
		}
	}
	if err := (PartitionProfile{Cardinality: 1, Area: 1, Dim: 2}).Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestCellCaseUnknownString(t *testing.T) {
	if CellCaseKind(42).String() == "" {
		t.Error("empty string for unknown case")
	}
}

func TestRegimeCuts3D(t *testing.T) {
	sparse3, dense3 := regimeCuts(3, paperParams)
	if !(sparse3 > 0 && sparse3 < dense3) {
		t.Errorf("3D cuts malformed: %g, %g", sparse3, dense3)
	}
}

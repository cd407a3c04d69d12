package plan

import (
	"testing"

	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/sample"
	"dod/internal/synth"
)

// TestDMTBuildAllocs gates the preprocessing stage's allocations on the
// benchmark's batch-small histogram (20 000 Massachusetts points, 28×28
// buckets). The planner allocates per region it prices, not per histogram
// cell per candidate per pass, and DSHC allocates per cluster, not per
// bucket or per merge: 2 542 objects measured, and the ceiling is that plus
// 10 %. DSHC building a rectangle per bucket and per merge made 11 837; the
// full-grid pricing before that made 1.17 M.
func TestDMTBuildAllocs(t *testing.T) {
	pts := synth.Segment(synth.Massachusetts, 20000, 1)
	h, err := sample.FromPoints(sample.Config{Domain: geom.Bounds(pts), BucketsPerDim: 28, Rate: 0.05, Seed: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumReducers: 4, Params: testParams}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DMT.Build(h, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2800 {
		t.Errorf("DMT.Build made %.0f allocations, ceiling 2800", allocs)
	}
}

// TestLocateAllocs: locating an in-domain point allocates only the returned
// supports slice (Clamp returns an in-domain point as is), nothing per
// candidate partition, and LocateInto with a scratch slice allocates
// nothing at all.
func TestLocateAllocs(t *testing.T) {
	pl, err := UniSpace.Build(uniformHistogram(t, 10), Options{NumReducers: 2, NumPartitions: 16, Params: testParams, Detector: detect.CellBased})
	if err != nil {
		t.Fatal(err)
	}
	rect := pl.Partitions[5].Rect
	interior := rect.Center()
	edge := geom.Point{Coords: []float64{rect.Min[0] + 1, interior.Coords[1]}} // within R of one neighbor
	scratch := make([]int, 0, 4)
	for _, tc := range []struct {
		name     string
		p        geom.Point
		supports int
		ceiling  float64
	}{
		{"interior", interior, 0, 0},
		{"edge", edge, 1, 1},
	} {
		if _, supports := pl.Locate(tc.p); len(supports) != tc.supports {
			t.Fatalf("%s: %d supports, want %d", tc.name, len(supports), tc.supports)
		}
		if allocs := testing.AllocsPerRun(100, func() { pl.Locate(tc.p) }); allocs > tc.ceiling {
			t.Errorf("%s: Locate made %.0f allocations, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
		if _, supports := pl.LocateInto(tc.p, scratch); len(supports) != tc.supports {
			t.Fatalf("%s: LocateInto found %d supports, want %d", tc.name, len(supports), tc.supports)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, scratch = pl.LocateInto(tc.p, scratch) }); allocs > 0 {
			t.Errorf("%s: LocateInto with scratch made %.0f allocations, want 0", tc.name, allocs)
		}
	}
}

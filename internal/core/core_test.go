package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/plan"
	"dod/internal/synth"
)

var testParams = detect.Params{R: 5, K: 4}

// makeSkewed builds a dataset with a dense cluster, a medium cluster,
// sparse background, and a few isolated outliers.
func makeSkewed(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	id := uint64(0)
	add := func(x, y float64) {
		pts = append(pts, geom.Point{ID: id, Coords: []float64{x, y}})
		id++
	}
	for i := 0; i < n*6/10; i++ { // dense city
		add(20+rng.NormFloat64()*3, 20+rng.NormFloat64()*3)
	}
	for i := 0; i < n*3/10; i++ { // medium town
		add(70+rng.NormFloat64()*8, 60+rng.NormFloat64()*8)
	}
	for i := 0; i < n/10; i++ { // sparse countryside
		add(rng.Float64()*100, rng.Float64()*100)
	}
	// A few guaranteed isolated outliers near the corners.
	add(1, 99)
	add(99, 1)
	add(99, 99)
	return pts
}

// bruteForceIDs is the semantic ground truth.
func bruteForceIDs(points []geom.Point, params detect.Params) []uint64 {
	res := detect.New(detect.BruteForce, 0).Detect(points, nil, params)
	ids := append([]uint64(nil), res.OutlierIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

var allPlanners = []plan.Planner{plan.Domain, plan.UniSpace, plan.DDriven, plan.CDriven, plan.DMT}

// TestDistributedMatchesCentralized is the framework's correctness theorem
// (Lemma 3.1 + Sec. III-A's "correctly leads to DOD identifying all
// outliers"): every planner/detector combination must reproduce the brute-
// force outlier set exactly.
func TestDistributedMatchesCentralized(t *testing.T) {
	points := makeSkewed(1200, 1)
	want := bruteForceIDs(points, testParams)
	if len(want) == 0 {
		t.Fatal("test data has no outliers; fixture broken")
	}
	input, err := InputFromPoints(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range allPlanners {
		for _, det := range []detect.Kind{detect.NestedLoop, detect.CellBased} {
			rep, err := Run(context.Background(), input, Config{
				Params:  testParams,
				Planner: planner,
				PlanOpts: plan.Options{
					NumReducers:   4,
					NumPartitions: 9,
					Detector:      det,
				},
				SampleRate: 1.0, // exact statistics: deterministic plans
				Seed:       7,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", planner.Name(), det, err)
			}
			if !reflect.DeepEqual(rep.Outliers, want) {
				t.Errorf("%s/%v: got %d outliers %v, want %d %v",
					planner.Name(), det, len(rep.Outliers), rep.Outliers, len(want), want)
			}
		}
	}
}

func TestDistributedMatchesCentralizedAcrossScales(t *testing.T) {
	for _, n := range []int{50, 300, 3000} {
		points := makeSkewed(n, int64(n))
		want := bruteForceIDs(points, testParams)
		input, err := InputFromPoints(points, 128)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), input, Config{
			Params:     testParams,
			Planner:    plan.DMT,
			PlanOpts:   plan.Options{NumReducers: 3},
			SampleRate: 1.0,
			Seed:       int64(n),
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(rep.Outliers, want) {
			t.Errorf("n=%d: got %v want %v", n, rep.Outliers, want)
		}
	}
}

func TestDistributedWithSampledStatistics(t *testing.T) {
	// A realistic (sub-1.0) sampling rate must still give exact results —
	// the sample only shapes the plan, never the verdicts.
	points := makeSkewed(5000, 3)
	want := bruteForceIDs(points, testParams)
	input, err := InputFromPoints(points, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range []plan.Planner{plan.DDriven, plan.CDriven, plan.DMT} {
		rep, err := Run(context.Background(), input, Config{
			Params:     testParams,
			Planner:    planner,
			PlanOpts:   plan.Options{NumReducers: 4, NumPartitions: 16, Detector: detect.CellBased},
			SampleRate: 0.1,
			Seed:       11,
		})
		if err != nil {
			t.Fatalf("%s: %v", planner.Name(), err)
		}
		if !reflect.DeepEqual(rep.Outliers, want) {
			t.Errorf("%s with 10%% sample: wrong outliers", planner.Name())
		}
	}
}

func TestDomainBaselineTwoJobs(t *testing.T) {
	points := makeSkewed(1000, 9)
	input, err := InputFromPoints(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), input, Config{
		Params:   testParams,
		Planner:  plan.Domain,
		PlanOpts: plan.Options{NumReducers: 4, NumPartitions: 9, Detector: detect.NestedLoop},
		Seed:     15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumJobs != 2 {
		t.Errorf("Domain baseline ran %d jobs, want 2", rep.NumJobs)
	}
	if rep.SupportRecords != 0 {
		t.Errorf("Domain baseline shuffled %d support records, want 0", rep.SupportRecords)
	}
	if !reflect.DeepEqual(rep.Outliers, bruteForceIDs(points, testParams)) {
		t.Error("Domain baseline produced wrong outliers")
	}
}

func TestSinglePassPlannersRunOneDetectionJob(t *testing.T) {
	points := makeSkewed(500, 17)
	input, _ := InputFromPoints(points, 100)
	rep, err := Run(context.Background(), input, Config{
		Params:     testParams,
		Planner:    plan.UniSpace,
		PlanOpts:   plan.Options{NumReducers: 2, NumPartitions: 4, Detector: detect.CellBased},
		SampleRate: 1.0,
		Seed:       19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumJobs != 1 {
		t.Errorf("uniSpace ran %d jobs, want 1 (no preprocessing, single pass)", rep.NumJobs)
	}
	if rep.Simulated.Preprocess != 0 {
		t.Errorf("uniSpace has preprocessing time %v, want 0", rep.Simulated.Preprocess)
	}
	if rep.SupportRecords == 0 {
		t.Error("uniSpace should shuffle support records")
	}
}

func TestDMTReportsPreprocessing(t *testing.T) {
	points := makeSkewed(2000, 21)
	input, _ := InputFromPoints(points, 200)
	rep, err := Run(context.Background(), input, Config{
		Params:     testParams,
		Planner:    plan.DMT,
		PlanOpts:   plan.Options{NumReducers: 4},
		SampleRate: 0.5,
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumJobs != 2 { // preprocessing + detection
		t.Errorf("DMT ran %d jobs, want 2", rep.NumJobs)
	}
	if rep.Simulated.Preprocess == 0 {
		t.Error("DMT preprocessing time missing")
	}
	if rep.Simulated.Reduce == 0 || rep.Simulated.Map == 0 {
		t.Errorf("missing stage times: %+v", rep.Simulated)
	}
	if rep.ReduceImbalance < 1 {
		t.Errorf("ReduceImbalance = %g, want >= 1", rep.ReduceImbalance)
	}
}

func TestRunValidatesParams(t *testing.T) {
	points := makeSkewed(100, 25)
	input, _ := InputFromPoints(points, 50)
	if _, err := Run(context.Background(), input, Config{Params: detect.Params{R: -1, K: 2}}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestInputFromPoints(t *testing.T) {
	points := makeSkewed(250, 27)
	input, err := InputFromPoints(points, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(input.Splits) != 3 {
		t.Errorf("got %d splits, want 3", len(input.Splits))
	}
	if input.Count != len(points) || input.Dim != 2 {
		t.Errorf("Count=%d Dim=%d", input.Count, input.Dim)
	}
	for _, p := range points {
		if !input.Domain.Contains(p) {
			t.Fatalf("domain %v misses %v", input.Domain, p)
		}
	}
	if _, err := InputFromPoints(nil, 10); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestDetectCentralized(t *testing.T) {
	points := makeSkewed(500, 33)
	want := bruteForceIDs(points, testParams)
	for _, kind := range []detect.Kind{detect.NestedLoop, detect.CellBased, detect.KDTree} {
		res := DetectCentralized(points, kind, testParams, 35)
		got := append([]uint64(nil), res.OutlierIDs...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v centralized mismatch", kind)
		}
	}
}

// TestDMTRoutesHighDimToProxGraph: on 32-d sphere data no axis-aligned box
// prunes a query ball, so DMT with Prox-Graph among its candidates must
// route at least one partition to it, stay exact, and spend fewer distance
// computations than the same pipeline restricted to Nested-Loop or to
// KD-Tree. At 4 000 points and below KD-Tree alone still wins.
func TestDMTRoutesHighDimToProxGraph(t *testing.T) {
	params := detect.Params{R: 4, K: 4}
	pts, _ := synth.HighDimUniform(8000, 32, params.R, 0.005, 3)
	input, err := InputFromPoints(pts, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// r spans the sphere in every coordinate, so each supporting area holds
	// nearly every point whatever the split: two partitions keep the index
	// builds few.
	run := func(cands ...detect.Kind) *Report {
		rep, err := Run(context.Background(), input, Config{
			Params:     params,
			Planner:    plan.DMT,
			PlanOpts:   plan.Options{NumReducers: 2, NumPartitions: 2, Candidates: cands},
			SampleRate: 1,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	dmt := run(detect.NestedLoop, detect.KDTree, detect.PGraph)
	want := DetectCentralized(pts, detect.BruteForce, params, 0).OutlierIDs
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(dmt.Outliers, want) {
		t.Fatalf("DMT found %d outliers, BruteForce %d", len(dmt.Outliers), len(want))
	}
	routed := false
	for _, p := range dmt.Plan.Partitions {
		routed = routed || p.Algo == detect.PGraph
	}
	if !routed {
		t.Error("no partition routed to Prox-Graph")
	}
	nl, kd := run(detect.NestedLoop), run(detect.KDTree)
	if dmt.DistComps >= nl.DistComps || dmt.DistComps >= kd.DistComps {
		t.Errorf("routed plan not cheapest: DMT %d, Nested-Loop %d, KD-Tree %d distance computations",
			dmt.DistComps, nl.DistComps, kd.DistComps)
	}
}

func TestHigherDimensionalEndToEnd(t *testing.T) {
	// 3D data exercises the generic-d paths end to end.
	rng := rand.New(rand.NewSource(37))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), Coords: []float64{
			rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10,
		}}
	}
	params := detect.Params{R: 4, K: 5}
	res := detect.New(detect.BruteForce, 0).Detect(pts, nil, params)
	want := append([]uint64(nil), res.OutlierIDs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	input, _ := InputFromPoints(pts, 100)
	rep, err := Run(context.Background(), input, Config{
		Params:        params,
		Planner:       plan.DMT,
		PlanOpts:      plan.Options{NumReducers: 3},
		SampleRate:    1.0,
		BucketsPerDim: 8,
		Seed:          39,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Outliers, want) {
		t.Errorf("3D: got %d outliers, want %d", len(rep.Outliers), len(want))
	}
}

package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"dod/internal/detect"
	"dod/internal/plan"
)

// TestSimulatedPinned pins the simulated cluster replay bit for bit: each
// stage of Report.Simulated in nanoseconds and ReduceImbalance in
// Float64bits, for every planner family on one skewed input. Ten-point
// splits make more map tasks than the 320 slots, so slots run several
// tasks; 500 reducers do the same for the reduce phase, with zero-length
// tasks tied at the end. The 32 mini buckets per axis are stated, not
// defaulted. A scheduler change must leave every figure alone.
func TestSimulatedPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("simulated figures are pinned on amd64")
	}
	input, err := InputFromPoints(makeSkewed(4000, 91), 10)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		pre, mapNs, shuffle, reduce int64
		imbalance                   uint64
	}
	for _, tc := range []struct {
		name    string
		planner plan.Planner
		opts    plan.Options
		want    pin
	}{
		{"uniSpace", plan.UniSpace, plan.Options{NumReducers: 4, NumPartitions: 16, Detector: detect.CellBased},
			pin{0, 5220, 468554, 3234629, 4611200939553161978}},
		{"CDriven", plan.CDriven, plan.Options{NumReducers: 500, NumPartitions: 600, Detector: detect.NestedLoop},
			pin{777224, 17060, 3792436, 2069720, 4628823694669764702}},
		{"DMT", plan.DMT, plan.Options{NumReducers: 8, Candidates: plan.PaperCandidates()},
			pin{777224, 8339, 1883440, 2738620, 4610969121118919993}},
		{"Domain", plan.Domain, plan.Options{NumReducers: 4, NumPartitions: 9, Detector: detect.NestedLoop},
			pin{0, 74840, 284518, 7749950, 4613915000908057338}},
	} {
		rep, err := Run(context.Background(), input, Config{
			Params: testParams, Planner: tc.planner, PlanOpts: tc.opts, SampleRate: 0.5, BucketsPerDim: 32, Seed: 93,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := rep.Simulated
		got := pin{int64(s.Preprocess), int64(s.Map), int64(s.Shuffle), int64(s.Reduce), math.Float64bits(rep.ReduceImbalance)}
		if got != tc.want {
			t.Errorf("%s: simulated %+v (imbalance %v), want %+v", tc.name, got, rep.ReduceImbalance, tc.want)
		}
	}
}

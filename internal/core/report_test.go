package core

import (
	"context"
	"testing"

	"dod/internal/plan"
)

func TestReportAccounting(t *testing.T) {
	points := makeSkewed(1500, 71)
	input, err := InputFromPoints(points, 200)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), input, Config{
		Params:     testParams,
		Planner:    plan.DMT,
		PlanOpts:   plan.Options{NumReducers: 4},
		SampleRate: 1,
		Seed:       73,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every point produces exactly one core record in the detection job.
	if rep.CoreRecords != int64(len(points)) {
		t.Errorf("CoreRecords = %d, want %d", rep.CoreRecords, len(points))
	}
	// Shuffle records of the detection job = core + support.
	// (The preprocessing job's shuffle is excluded from these counters.)
	if rep.ShuffleRecords != rep.CoreRecords+rep.SupportRecords {
		t.Errorf("ShuffleRecords %d != core %d + support %d",
			rep.ShuffleRecords, rep.CoreRecords, rep.SupportRecords)
	}
	if rep.ShuffleBytes <= 0 {
		t.Error("ShuffleBytes not accounted")
	}
	// Wall-clock breakdown must be populated for every stage that ran.
	if rep.Wall.Preprocess <= 0 || rep.Wall.Map <= 0 || rep.Wall.Reduce <= 0 {
		t.Errorf("wall breakdown incomplete: %+v", rep.Wall)
	}
	// Simulated times are derived from deterministic counters: two
	// identical runs must agree exactly.
	rep2, err := Run(context.Background(), input, Config{
		Params:     testParams,
		Planner:    plan.DMT,
		PlanOpts:   plan.Options{NumReducers: 4},
		SampleRate: 1,
		Seed:       73,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Simulated != rep2.Simulated {
		t.Errorf("simulated breakdown not deterministic: %+v vs %+v", rep.Simulated, rep2.Simulated)
	}
	if rep.DistComps != rep2.DistComps || rep.ShuffleBytes != rep2.ShuffleBytes {
		t.Error("work counters not deterministic")
	}
}

func TestPhaseBreakdown(t *testing.T) {
	a := PhaseBreakdown{Preprocess: 1, Map: 2, Shuffle: 3, Reduce: 4}
	if a.Total() != 10 {
		t.Errorf("Total = %v", a.Total())
	}
}

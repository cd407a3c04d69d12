package main

import (
	"testing"

	"dod/internal/experiments"
)

func tinyConfig() experiments.Config {
	return experiments.Config{SegmentN: 1500, BaseN: 600, SweepN: 2000, Reducers: 4, Seed: 1}
}

func TestRunSelectedFigure(t *testing.T) {
	if err := run(tinyConfig(), figList{"4"}, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(tinyConfig(), figList{"99"}, true); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunnerTableCoversOrder(t *testing.T) {
	for _, id := range order {
		if _, ok := runners[id]; !ok {
			t.Errorf("order lists %q but runners lacks it", id)
		}
	}
	if len(order) != len(runners) {
		t.Errorf("order has %d entries, runners %d", len(order), len(runners))
	}
}

// TestMeasureDist runs the loopback-cluster comparison at test scale; the
// record must report byte-identical results and non-trivial wire traffic.
func TestMeasureDist(t *testing.T) {
	rec, err := measureDist(benchRunConfig{points: 2000, reducers: 4, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Match {
		t.Error("cluster run diverged from local run")
	}
	if rec.Workers != 4 || rec.Points != 2000 {
		t.Errorf("record shape: %+v", rec)
	}
	if rec.BytesShipped == 0 || rec.BytesCollected == 0 || rec.Dispatches == 0 {
		t.Errorf("wire counters empty: %+v", rec)
	}
	if rec.LocalWallMs <= 0 || rec.ClusterWallMs <= 0 {
		t.Errorf("wall times not recorded: %+v", rec)
	}
}

// TestMeasureKernelParallel checks the parallel bench record at test
// scale: the deterministic counters must match the sequential case, and
// the speedup field must be derived from the supplied sequential ns/op.
func TestMeasureKernelParallel(t *testing.T) {
	var c benchCase
	for _, cand := range jsonBenchCases() {
		if cand.n == 2000 {
			c = cand
			break
		}
	}
	if c.name == "" {
		t.Fatal("no small parallel bench case found")
	}
	seq := measureKernel(c)
	rec := measureKernelParallel(c, 2, seq.NsPerOp)
	if rec.Workers != 2 {
		t.Errorf("workers = %d, want 2", rec.Workers)
	}
	if rec.DistComps != seq.DistComps || rec.Outliers != seq.Outliers {
		t.Errorf("deterministic counters diverge: parallel %+v, sequential %+v", rec, seq)
	}
	if rec.Speedup <= 0 {
		t.Errorf("speedup not recorded: %+v", rec)
	}
}

// TestRunParCheck runs the CI gate at test scale with no minimum: it must
// verify bit-identity and report a ratio without failing.
func TestRunParCheck(t *testing.T) {
	if err := runParCheck(1500, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFigListFlag(t *testing.T) {
	var f figList
	if err := f.Set("4"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("9a"); err != nil {
		t.Fatal(err)
	}
	if f.String() != "4,9a" {
		t.Errorf("String() = %q", f.String())
	}
}

// TestRunGraphCheck runs the exactness gate at test scale: every fixed
// seed must answer byte-identically to BruteForce on both workloads.
func TestRunGraphCheck(t *testing.T) {
	if err := runGraphCheck(800); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureHighDim runs the 32-dimensional tactic comparison and checks
// the committed-record invariants: every exact tactic matches BruteForce,
// the planner routes at least one partition to the graph tactic, and the
// routed plan beats the single-tactic alternatives on distance
// computations.
func TestMeasureHighDim(t *testing.T) {
	if testing.Short() {
		t.Skip("high-dimensional workload is seconds-scale")
	}
	sec, err := measureHighDim(benchRunConfig{reducers: 4, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sec.Dim < 32 {
		t.Errorf("dim = %d, want >= 32", sec.Dim)
	}
	var graphComps, bruteComps int64 = -1, -1
	for _, tac := range sec.Tactics {
		if !tac.MatchBrute {
			t.Errorf("%s diverged from BruteForce", tac.Detector)
		}
		switch tac.Detector {
		case "Prox-Graph":
			graphComps = tac.DistComps
		case "BruteForce":
			bruteComps = tac.DistComps
		}
	}
	if graphComps < 0 || bruteComps < 0 {
		t.Fatalf("missing tactic records: %+v", sec.Tactics)
	}
	if graphComps >= bruteComps {
		t.Errorf("graph tactic did not beat brute force: %d vs %d", graphComps, bruteComps)
	}
	if sec.Planner.PicksByAlgo["Prox-Graph"] == 0 {
		t.Errorf("planner never picked the graph tactic: %+v", sec.Planner.PicksByAlgo)
	}
	if !sec.Planner.Wins {
		t.Errorf("DMT routing did not win: dmt=%d nl=%d kd=%d",
			sec.Planner.DistComps, sec.Planner.NestedLoopComps, sec.Planner.KDTreeComps)
	}
}

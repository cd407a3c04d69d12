package core

import (
	"context"
	"testing"

	"dod/internal/codec"
	"dod/internal/mapreduce"
	"dod/internal/plan"
	"dod/internal/synth"
)

// TestDetectionMapperAllocsPerSplit: the map side of Fig. 3 allocates per
// split, not per record. Locate's own supports slices are netted out, so
// what is left is the mapper's decode, encode and slab work, which must not
// grow when the split grows eightfold. The margin is far below one
// allocation per record yet absorbs the buffer regrowth a dropped pool
// entry costs under the race detector.
func TestDetectionMapperAllocsPerSplit(t *testing.T) {
	pts := synth.Segment(synth.Massachusetts, 8000, 1)
	input, err := InputFromPoints(pts, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), input, Config{
		Params:     testParams,
		Planner:    plan.DMT,
		PlanOpts:   plan.Options{NumReducers: 4},
		SampleRate: 0.05,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := rep.Plan
	mapper := detectionMapper(pl)
	emit := func(uint64, []byte) {}
	allocs := func(n int) float64 {
		split := mapreduce.Split{Name: "s", Data: codec.EncodePoints(pts[:n])}
		tc := &mapreduce.TaskContext{Phase: "map"}
		mapped := testing.AllocsPerRun(3, func() {
			if err := mapper(tc, split, emit); err != nil {
				t.Fatal(err)
			}
		})
		located := testing.AllocsPerRun(3, func() {
			for _, p := range pts[:n] {
				pl.Locate(p)
			}
		})
		return mapped - located
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("detectionMapper allocations beyond Locate's: %v at 1 000 points, %v at 8 000", small, large)
	if large-small > 64 {
		t.Fatalf("detectionMapper allocations grow with the split: %v at 1 000 points, %v at 8 000", small, large)
	}
}

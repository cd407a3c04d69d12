package dod

import (
	"runtime"
	"testing"

	"dod/internal/synth"
)

// TestBatchJobAllocs gates the mallocs of one Detect job on 40 000
// hierarchical US points, batch-large's layout at a tenth of its size.
// A job allocates per map task, partition and plan region, not per point
// or per shuffled record: routing writes into per-task scratch, a shuffle
// bucket is three flat arrays, and DSHC builds no rectangle per bucket.
// It counts mallocs, not bytes: TotalAlloc jitters run to run. The ceiling
// is the most measured at GOMAXPROCS 1, 2 and 8 (6 882), plus 10 %; the
// job made 36 451 when every point had its own supports slice, every
// shuffled record its own slice header and every DSHC bucket its own
// rectangle.
func TestBatchJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	const ceiling = 7580
	pts := synth.Hierarchical(synth.LevelUS, 5000, 1)
	cfg := Config{R: 5, K: 4, SampleRate: 0.05, Seed: 1}
	if _, err := Detect(pts, cfg); err != nil { // warm the pools
		t.Fatal(err)
	}
	var most uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Detect(pts, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		most = max(most, after.Mallocs-before.Mallocs)
	}
	if most > ceiling {
		t.Errorf("Detect on %d points made %d mallocs, ceiling %d", len(pts), most, ceiling)
	}
}

// TestHighDimJobAllocs gates the mallocs of one batch-highdim-shaped job:
// 4 000 32-d points that plan as one Prox-Graph partition, so one reduce
// task runs the kernel on every core the job has. Each of the kernel's
// tiles takes one presized search scratch, which no walk grows. The
// ceiling is the most measured at GOMAXPROCS 1, 2 and 8 (491, at 8), plus
// 10 %; each tile beyond the first costs a scratch and a goroutine.
// Over 20 jobs a job made 374–378 mallocs at GOMAXPROCS 1, 390–404 at 2
// and 433–457 at 8. What still varies is the runtime's and the standard
// library's: goroutine and M descriptors and sudogs allocated when their
// free lists are empty, and sync.Pool locals and fmt printers refilled
// after a GC emptied their pools. The reducer's decode scratch is sized
// before its first point, so a scratch the pool lost to a GC costs four
// mallocs, where its growth by doubling cost 44 (jobs of 444–447 at 2 and
// up to 495 at 8).
func TestHighDimJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	const ceiling = 540
	pts, _ := synth.HighDimUniform(4000, 32, 4, 0.005, 1)
	cfg := onePartitionConfig(0)
	if _, err := Detect(pts, cfg); err != nil { // warm the pools
		t.Fatal(err)
	}
	var most uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Detect(pts, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		most = max(most, after.Mallocs-before.Mallocs)
	}
	if most > ceiling {
		t.Errorf("Detect on %d points made %d mallocs, ceiling %d", len(pts), most, ceiling)
	}
}

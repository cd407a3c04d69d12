package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
)

// batchScene builds a randomized ingest sequence with deliberate bad items
// (duplicate IDs, wrong dimensions, coincident points) so the per-slot error
// contract is exercised alongside the happy path. Across seeds the window is
// capacity-bound, TTL-bound or both, in 1, 2 and 3 dimensions.
func batchScene(seed int64) (Config, []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		R:   0.5 + rng.Float64()*4,
		K:   1 + rng.Intn(5),
		Dim: sceneDim(seed),
	}
	if (seed/3)%3 != 1 {
		cfg.Capacity = 8 + rng.Intn(40)
	}
	if (seed/3)%3 != 0 {
		cfg.TTL = 3 * time.Second // batches are a second apart
	}
	n := 20 + rng.Intn(180)
	if cfg.Dim == 3 {
		n = 20 + rng.Intn(60) // a 3-D walk visits 729 cells
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		id := uint64(i)
		if rng.Intn(12) == 0 && i > 0 {
			id = uint64(rng.Intn(i)) // sometimes an earlier ID: a duplicate, or a re-use after eviction
		}
		coords := make([]float64, cfg.Dim)
		for j := range coords {
			coords[j] = rng.Float64() * 20
		}
		switch {
		case rng.Intn(25) == 0:
			coords = coords[:cfg.Dim-1] // sometimes the wrong dimensionality
		case rng.Intn(15) == 0 && i > 0:
			coords = append([]float64(nil), pts[rng.Intn(i)].Coords...) // sometimes on top of an earlier point
			coords = append(coords, make([]float64, cfg.Dim)...)[:cfg.Dim]
		}
		pts[i] = geom.Point{ID: id, Coords: coords}
	}
	return cfg, pts
}

// splitInto cuts pts into batches of the given size (the final batch may be
// shorter); size <= 0 means one batch holding everything.
func splitInto(pts []geom.Point, size int) [][]geom.Point {
	if size <= 0 {
		return [][]geom.Point{pts}
	}
	var out [][]geom.Point
	for lo := 0; lo < len(pts); lo += size {
		hi := lo + size
		if hi > len(pts) {
			hi = len(pts)
		}
		out = append(out, pts[lo:hi])
	}
	return out
}

// TestProcessBatchSplitInvariance is the batch-API contract: cutting one
// logical stream into batches of any size yields byte-identical verdicts,
// error slots, flip counters, eviction totals and final window contents to
// point-at-a-time ingestion, provided each point observes its batch's
// timestamp. Batch sizes 1, 7, 64 and whole-stream go through ProcessBatch
// and are held to the naive window fed one point at a time.
func TestProcessBatchSplitInvariance(t *testing.T) {
	base := time.Unix(1700000000, 0)
	for seed := int64(1); seed <= 27; seed++ {
		cfg, pts := batchScene(seed)
		for _, size := range []int{1, 7, 64, 0} {
			nw := newNaiveWindow(cfg)
			win := newSingle(t, cfg)
			for bi, batch := range splitInto(pts, size) {
				now := base.Add(time.Duration(bi) * time.Second)
				wantV := make([]Verdict, len(batch))
				wantE := make([]error, len(batch))
				for i, p := range batch {
					wantV[i], wantE[i] = nw.process(p, now)
				}
				gotV, gotE := win.ingest(batch, now)
				assertLines(t, fmt.Sprintf("seed %d size %d batch %d", seed, size, bi), batch, gotV, gotE, wantV, wantE)
			}
			assertState(t, win, nw)
		}
	}
}

// TestProcessBatchErrorSlots pins the per-slot error identities: bad items
// fail individually with the documented sentinels while the rest of the
// batch is admitted.
func TestProcessBatchErrorSlots(t *testing.T) {
	win, err := NewWindow(Config{R: 1, K: 2, Dim: 2, Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	batch := []geom.Point{
		{ID: 1, Coords: []float64{0, 0}},
		{ID: 1, Coords: []float64{1, 1}},    // duplicate of slot 0
		{ID: 2, Coords: []float64{1, 2, 3}}, // wrong dimension
		{ID: 3, Coords: []float64{0.5, 0}},
	}
	vs, es := win.ProcessBatch(batch, time.Unix(0, 0))
	if es[0] != nil || es[3] != nil {
		t.Fatalf("good slots failed: %v %v", es[0], es[3])
	}
	if !errors.Is(es[1], errs.ErrDuplicateID) {
		t.Errorf("slot 1: %v, want ErrDuplicateID", es[1])
	}
	if !errors.Is(es[2], errs.ErrDimMismatch) {
		t.Errorf("slot 2: %v, want ErrDimMismatch", es[2])
	}
	if vs[1] != (Verdict{}) || vs[2] != (Verdict{}) {
		t.Errorf("failed slots carry non-zero verdicts: %+v %+v", vs[1], vs[2])
	}
	if vs[3].Seq != 2 {
		t.Errorf("slot 3 seq = %d, want 2 (failed slots consume no sequence numbers)", vs[3].Seq)
	}
	if st := win.Stats(); st.Len != 2 || st.Ingested != 2 {
		t.Errorf("stats after partial batch: %+v", st)
	}
}

// TestProcessBatchClosed: a closed window fails every slot with ErrClosed.
func TestProcessBatchClosed(t *testing.T) {
	win, err := NewWindow(Config{R: 1, K: 1, Dim: 2, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	win.Close()
	_, es := win.ProcessBatch([]geom.Point{{ID: 1, Coords: []float64{0, 0}}}, time.Unix(0, 0))
	if !errors.Is(es[0], errs.ErrClosed) {
		t.Errorf("got %v, want ErrClosed", es[0])
	}
	_, ses := win.ScoreBatch([]geom.Point{{ID: 1, Coords: []float64{0, 0}}}, 2)
	if !errors.Is(ses[0], errs.ErrClosed) {
		t.Errorf("score: got %v, want ErrClosed", ses[0])
	}
}

// TestScoreBatchMatchesScorePoint: batch scoring at any worker count equals
// per-point ScorePoint, including error slots for bad-dimension queries.
func TestScoreBatchMatchesScorePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	win, err := NewWindow(Config{R: 2, K: 3, Dim: 2, Capacity: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		p := geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 15, rng.Float64() * 15}}
		if _, err := win.Process(p, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]geom.Point, 200)
	for i := range queries {
		coords := []float64{rng.Float64() * 15, rng.Float64() * 15}
		if i%40 == 13 {
			coords = coords[:1] // bad dimension
		}
		queries[i] = geom.Point{ID: uint64(10000 + i), Coords: coords}
	}
	wantS := make([]Score, len(queries))
	wantE := make([]error, len(queries))
	for i, q := range queries {
		wantS[i], wantE[i] = win.ScorePoint(q)
	}
	for _, workers := range []int{1, 2, 7, 0} {
		gotS, gotE := win.ScoreBatch(queries, workers)
		if !reflect.DeepEqual(gotS, wantS) {
			t.Errorf("workers=%d: scores diverge from ScorePoint", workers)
		}
		for i := range wantE {
			if (gotE[i] == nil) != (wantE[i] == nil) {
				t.Errorf("workers=%d slot %d: err %v vs %v", workers, i, gotE[i], wantE[i])
			}
		}
	}
}

// TestProcessBatchAllocs pins the ingest hot path in tier-1: on a window at
// capacity (2-D, the benchmark's R and K, every point evicting one), a
// 100-point ProcessBatch allocates a constant and nothing per point — each
// admission reuses the slot and, where its cell is new, the index cell an
// eviction freed. What remains is the two result slices and the amortized
// growth of the FIFO, the ID map and the cells' columns: 21–22 objects
// measured, and the ceiling is that plus 10 %. An entry, a coordinate copy
// or a cell allocated per point costs 100 objects per batch, and a cell
// list built per walk or a per-point op that escapes costs 200–1000.
func TestProcessBatchAllocs(t *testing.T) {
	const (
		capacity = 2000
		lines    = 100
		runs     = 20
	)
	rng := rand.New(rand.NewSource(21))
	next := uint64(0)
	draw := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{ID: next, Coords: []float64{rng.Float64() * 40, rng.Float64() * 40}}
			next++
		}
		return pts
	}
	win, err := NewWindow(Config{R: 5, K: 4, Dim: 2, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	win.ProcessBatch(draw(2*capacity), t0)  // fill, and churn once so every structure has reached its steady size
	batches := make([][]geom.Point, runs+1) // AllocsPerRun warms up with one extra call
	for i := range batches {
		batches[i] = draw(lines)
	}
	i := 0
	perBatch := testing.AllocsPerRun(runs, func() {
		_, errsOut := win.ProcessBatch(batches[i], t0)
		i++
		for _, err := range errsOut {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if st := win.Stats(); st.Len != capacity || st.Evicted == 0 {
		t.Fatalf("window not at capacity: %+v", st)
	}
	if ceiling := 22 * 1.1; perBatch > ceiling {
		t.Errorf("ProcessBatch of %d points allocates %.1f objects, want <= %.1f (a constant, nothing per point)", lines, perBatch, ceiling)
	}
	t.Logf("%.1f objects per %d-point batch", perBatch, lines)
}

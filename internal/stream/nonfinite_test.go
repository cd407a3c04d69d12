package stream

import (
	"errors"
	"math"
	"testing"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
)

// nonFinite are points no window may admit or score: each has the right
// dimension and one coordinate that is not a number on the line.
func nonFinite(id uint64) []geom.Point {
	return []geom.Point{
		{ID: id, Coords: []float64{math.Inf(1), 0}},
		{ID: id + 1, Coords: []float64{math.Inf(-1), 0}},
		{ID: id + 2, Coords: []float64{math.NaN(), 0}},
		{ID: id + 3, Coords: []float64{0, math.NaN()}},
	}
}

// countingRecorder tallies what a ShardWindow records for replication.
type countingRecorder struct{ ops int }

func (r *countingRecorder) RecordOp(*ShardOp, time.Time) { r.ops++ }
func (r *countingRecorder) RecordImport([]ExportedEntry) {}

// TestNonFiniteCoordinatesRejected: a NaN or ±Inf coordinate is refused
// wherever dimension is checked — every admitting and every read-only path
// — as a parameter error that changes nothing, evicts nothing and consumes no
// sequence number. (Before the check, int64(Floor(±Inf/side)) filed all such
// points in one cell and the L1 auto-accept counted them as each other's
// neighbors: three of them in a K = 1 window were all inliers, while the
// batch detector over the snapshot said all three were outliers.)
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	cfg := Config{R: 1, K: 1, Dim: 2, Capacity: 3}
	refused := func(t *testing.T, path string, err error) {
		t.Helper()
		if !errors.Is(err, errs.ErrBadParams) {
			t.Errorf("%s: error %v, want ErrBadParams", path, err)
		}
	}

	t.Run("Process", func(t *testing.T) {
		win := newSingle(t, cfg)
		nw := newNaiveWindow(cfg)
		// Fill to capacity first, so an admitted line would evict.
		for i, p := range []geom.Point{{ID: 1, Coords: []float64{0, 0}}, {ID: 2, Coords: []float64{0.5, 0}}, {ID: 3, Coords: []float64{9, 9}}} {
			nw.process(p, t0)
			if _, err := win.w.Process(p, t0); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		for _, p := range nonFinite(10) {
			v, err := win.w.Process(p, t0)
			refused(t, "Process", err)
			if v != (Verdict{}) {
				t.Errorf("Process(%v): refused line carries verdict %+v", p.Coords, v)
			}
			nw.process(p, t0)
			assertState(t, win, nw)
		}
		assertMatchesBatch(t, win.w, cfg.R, cfg.K, 0)
	})

	t.Run("ProcessBatch", func(t *testing.T) {
		// The issue's stream, between finite lines at capacity: the naive
		// window decides every line, Window must agree slot by slot.
		win := newSingle(t, cfg)
		nw := newNaiveWindow(cfg)
		batch := []geom.Point{{ID: 1, Coords: []float64{0, 0}}, {ID: 2, Coords: []float64{0.5, 0}}, {ID: 3, Coords: []float64{9, 9}}}
		batch = append(batch, nonFinite(10)...)
		batch = append(batch, geom.Point{ID: 4, Coords: []float64{0.4, 0.1}})
		batch = append(batch, nonFinite(10)...)
		wantV := make([]Verdict, len(batch))
		wantE := make([]error, len(batch))
		for i, p := range batch {
			wantV[i], wantE[i] = nw.process(p, t0)
		}
		gotV, gotE := win.ingest(batch, t0)
		assertLines(t, win.name(), batch, gotV, gotE, wantV, wantE)
		assertState(t, win, nw)
		if st := win.stats(); st.Seq != 4 || st.Ingested != 4 || st.Evicted != 1 {
			t.Errorf("refused lines consumed something: %+v", st)
		}
		assertMatchesBatch(t, win.w, cfg.R, cfg.K, 0)
	})

	t.Run("Score", func(t *testing.T) {
		win := newSingle(t, cfg)
		if _, err := win.w.Process(geom.Point{ID: 1, Coords: []float64{0, 0}}, t0); err != nil {
			t.Fatal(err)
		}
		queries := append(nonFinite(10), geom.Point{ID: 20, Coords: []float64{0.1, 0}})
		scores, errsOut := win.w.ScoreBatch(queries, 2)
		for i, q := range queries[:4] {
			_, err := win.w.ScorePoint(q)
			refused(t, "ScorePoint", err)
			refused(t, "ScoreBatch", errsOut[i])
		}
		if errsOut[4] != nil || scores[4] != (Score{ID: 20, Neighbors: 1}) {
			t.Errorf("finite query beside refused ones: %+v, %v", scores[4], errsOut[4])
		}
	})

	t.Run("ApplyOps", func(t *testing.T) {
		sw, err := NewShardWindow(ShardConfig{R: cfg.R, K: cfg.K, Dim: cfg.Dim})
		if err != nil {
			t.Fatal(err)
		}
		rec := &countingRecorder{}
		sw.SetRecorder(rec)
		owns := func([]int64) bool { return true }
		applyOp(t, sw, t0, ShardOp{Kind: OpAdmit, Point: geom.Point{ID: 1, Coords: []float64{0, 0}}, Seq: 1})
		before, _ := sw.Digest()
		var ops []ShardOp
		for i, p := range nonFinite(10) {
			ops = append(ops,
				ShardOp{Kind: OpAdmit, Point: p, Seq: uint64(2 + i)},
				ShardOp{Kind: OpSupport, Point: p, Cells: [][]int64{{0, 0}}, Delta: +1})
			if _, err := sw.ApplySupport(p, [][]int64{{0, 0}}, 0); !errors.Is(err, errs.ErrBadParams) {
				t.Errorf("ApplySupport(%v): error %v, want ErrBadParams", p.Coords, err)
			}
		}
		_, opErrs := sw.ApplyOps(ops, t0, owns)
		for _, err := range opErrs {
			refused(t, "ApplyOps", err)
		}
		if after, n := sw.Digest(); after != before || n != 1 {
			t.Errorf("refused ops changed the window: digest %x → %x, %d residents", before, after, n)
		}
		if rec.ops != 1 {
			t.Errorf("recorder saw %d ops, want only the one that succeeded", rec.ops)
		}
		if err := sw.Import([]ExportedEntry{{Point: nonFinite(10)[0], Seq: 9}}); !errors.Is(err, errs.ErrBadParams) {
			t.Errorf("Import of a non-finite entry: error %v, want ErrBadParams", err)
		}
	})
}

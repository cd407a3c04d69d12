package stream

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dod/internal/geom"
)

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// retentionPoints draws n points over a 2-D square so wide that at r = 1
// they land in at least 30 000 distinct index cells, and reports how many.
func retentionPoints(t *testing.T, n int) ([]geom.Point, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	ix := mustShardWindow(t, ShardConfig{R: 1, K: 3, Dim: 2}).ix
	pts := make([]geom.Point, n)
	cells := make(map[[2]int64]struct{}, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i + 1), Coords: []float64{rng.Float64() * 200, rng.Float64() * 200}}
		c := ix.CellCoords(pts[i])
		cells[[2]int64{c[0], c[1]}] = struct{}{}
	}
	if len(cells) < 30_000 {
		t.Fatalf("%d points cover %d cells, want >= 30000", n, len(cells))
	}
	return pts, len(cells)
}

func mustShardWindow(t *testing.T, cfg ShardConfig) *ShardWindow {
	t.Helper()
	sw, err := NewShardWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestDrainedWindowReleasesCells fills a TTL window with 50 000 points
// spread over more than 30 000 cells and drains it with EvictExpired: the
// heap it keeps is then within 1 MiB of an empty window's — its slots, ID
// map, index cells and cell maps went with its residents. A shard window
// filled the same way and Reset keeps no more.
func TestDrainedWindowReleasesCells(t *testing.T) {
	const n, slack = 50_000, 1 << 20
	t.Run("EvictExpired", func(t *testing.T) {
		pts, cells := retentionPoints(t, n)
		base := liveHeap()
		w, err := NewWindow(Config{R: 1, K: 3, Dim: 2, TTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		empty := liveHeap() - base
		for at := 0; at < n; at += 1000 {
			w.ProcessBatch(pts[at:at+1000], t0)
		}
		full := liveHeap() - base
		if got := w.EvictExpired(t0.Add(2 * time.Minute)); got != n {
			t.Fatalf("EvictExpired drained %d points, want %d", got, n)
		}
		drained := liveHeap() - base
		if drained > empty+slack {
			t.Errorf("drained window keeps %d B, an empty one %d B (full: %d B over %d cells); want within %d B",
				drained, empty, full, cells, slack)
		}
		t.Logf("empty %d B, full %d B over %d cells, drained %d B", empty, full, cells, drained)
		runtime.KeepAlive(w)
		runtime.KeepAlive(pts) // in base: it must not be freed before the last measurement
	})
	t.Run("Reset", func(t *testing.T) {
		pts, cells := retentionPoints(t, n)
		ops := make([]ShardOp, len(pts))
		for i, p := range pts {
			ops[i] = ShardOp{Kind: OpAdmit, Point: p, Seq: uint64(i + 1)}
		}
		base := liveHeap()
		sw := mustShardWindow(t, ShardConfig{R: 1, K: 3, Dim: 2})
		empty := liveHeap() - base
		sw.ApplyOps(ops, t0, nil)
		full := liveHeap() - base
		if st := sw.Stats(); st.Len != n {
			t.Fatalf("shard window holds %d points, want %d", st.Len, n)
		}
		sw.Reset()
		reset := liveHeap() - base
		if reset > empty+slack {
			t.Errorf("reset shard window keeps %d B, an empty one %d B (full: %d B over %d cells); want within %d B",
				reset, empty, full, cells, slack)
		}
		t.Logf("empty %d B, full %d B over %d cells, reset %d B", empty, full, cells, reset)
		runtime.KeepAlive(sw)
		runtime.KeepAlive(ops) // in base, as pts above
	})
}

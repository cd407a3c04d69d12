package router_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/router"
	"dod/internal/stream"
)

// TestShardedTierAllocs pins the sharded tier's allocation ceilings on the
// shard-wire golden's tier and stream, without the recorder: whole-process
// mallocs — router, three shards and the loopback HTTP between them — per
// ingested line on a window at capacity and per scored line, each the
// measured figure plus 10 %, as TestIngestHandlerAllocs pins the single
// server's.
func TestShardedTierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	const (
		ingestCeiling = 22.2 * 1.1
		scoreCeiling  = 9.7 * 1.1
		warmRounds    = 4 // ingest and score rounds past the fill that are not counted
	)
	w := newWireTier(t, nil)
	var mallocs, lines [2]float64 // ingest, score
	for i, req := range wireStream(11, 24) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w.post(req.path, req.reqID, req.body)
		runtime.ReadMemStats(&m1)
		if i < wireCapacity/wireLines+2*warmRounds {
			continue
		}
		k := 0
		if req.path == "/v1/score" {
			k = 1
		}
		mallocs[k] += float64(m1.Mallocs - m0.Mallocs)
		lines[k] += wireLines
	}
	perIngest, perScore := mallocs[0]/lines[0], mallocs[1]/lines[1]
	if perIngest > ingestCeiling {
		t.Errorf("%.2f allocations per ingested line, ceiling %.2f", perIngest, ingestCeiling)
	}
	if perScore > scoreCeiling {
		t.Errorf("%.2f allocations per scored line, ceiling %.2f", perScore, scoreCeiling)
	}
	t.Logf("%.2f allocations per ingested line, %.2f per scored line", perIngest, perScore)
}

// TestLargeIngestRetainsNoScratch fills two fresh tiers with the same
// 20 000 points, one in 50-line requests and one in a single request, and
// compares the heap each keeps afterwards. The windows and the router's
// bookkeeping are the same, so the single request — one 20 000-op segment,
// on 2-cell blocks where nearly every op has cells on other shards — must
// not leave the router holding scratch sized for that segment.
func TestLargeIngestRetainsNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not the program's under -race")
	}
	const n, lines, slack = 20_000, 50, 1 << 20
	body := strings.SplitAfter(pointLines(rand.New(rand.NewSource(3)), 1, n), "\n")
	retained := func(chunk int) int64 {
		c := newCluster(t, clusterOpts{shards: 3, capacity: n, block: 2})
		before := liveHeap()
		for lo := 0; lo < n; lo += chunk {
			if status, raw := post(t, c.rtSrv.URL+"/v1/ingest", strings.Join(body[lo:lo+chunk], "")); status != 200 || strings.Contains(string(raw), `"error"`) {
				t.Fatalf("ingest of lines %d..%d: status %d: %.300s", lo, lo+chunk, status, raw)
			}
		}
		after := liveHeap()
		runtime.KeepAlive(c)
		return after - before
	}
	small, large := retained(lines), retained(n)
	t.Logf("heap kept: %d bytes after 50-line requests, %d after one %d-line request", small, large, n)
	if large > small+slack {
		t.Errorf("one %d-line request kept %d bytes more heap than the same points in %d-line requests, want at most %d",
			n, large-small, lines, slack)
	}
}

// liveHeap is the heap in use after two collections: sync.Pool caches
// survive one.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestWaveBodyEncodeAllocs pins each wave-body encoder at the body, sized
// up front with every payload written straight into it, plus the header
// frame's JSON marshal.
func TestWaveBodyEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	probes, ops := waveInputs(rand.New(rand.NewSource(5)))
	sup := router.SupportHeader{Limit: 4, Victims: []uint64{3, 1 << 40, 77}}
	ing := router.IngestBatchHeader{ArrivedNs: 1_700_000_000_000_000_000, Count: len(ops)}
	buf := make([]byte, 0, 1024)
	for _, tc := range []struct {
		name           string
		header, encode func()
	}{
		{"EncodeSupportBatch", func() { codec.AppendHeaderFrame(buf[:0], sup) }, func() { router.EncodeSupportBatch(sup, probes) }},
		{"EncodeIngestBatch", func() { codec.AppendHeaderFrame(buf[:0], ing) }, func() { router.EncodeIngestBatch(ing, ops) }},
	} {
		marshal := testing.AllocsPerRun(50, tc.header)
		if got := testing.AllocsPerRun(50, tc.encode); got > 1+marshal {
			t.Errorf("%s allocates %v objects per body, want <= 1 (the body) + %v (the header's marshal)", tc.name, got, marshal)
		}
	}
}

// waveInputs is a segment's worth of wave input: 50 probes with 2-D
// 49-cell lists, and an admission, an eviction and a support step per
// probe point.
func waveInputs(rng *rand.Rand) ([]router.SupportProbe, []stream.ShardOp) {
	var probes []router.SupportProbe
	var ops []stream.ShardOp
	for i := 0; i < 50; i++ {
		p := geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 20, rng.Float64() * 20}}
		cells := make([][]int64, 49)
		for k := range cells {
			cells[k] = []int64{int64(rng.Intn(100)) - 50, int64(rng.Intn(100)) - 50}
		}
		probes = append(probes, router.SupportProbe{Point: p, Cells: cells})
		ops = append(ops,
			stream.ShardOp{Kind: stream.OpAdmit, Point: p, Seq: uint64(i + 1), Foreign: i % 5},
			stream.ShardOp{Kind: stream.OpEvict, ID: uint64(1000 + i)},
			stream.ShardOp{Kind: stream.OpSupport, Point: p, Cells: cells[:12], Delta: 1 - 2*(i%2)})
	}
	return probes, ops
}

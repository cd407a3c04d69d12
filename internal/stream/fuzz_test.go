package stream

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/index"
)

// fuzzResidents and fuzzSteps bound a FuzzWindowOps run, so that the naive
// window's all-pairs recount after every op keeps one input to about a
// millisecond.
const fuzzResidents, fuzzSteps = 32, 160

// fuzzSeed turns a golden shape into a FuzzWindowOps input: its dimension,
// its ownership (a checkerboard when it is sharded) and its K scaled to the
// fuzz window's density, then op bytes from the shape's own seed.
func fuzzSeed(shape goldenShape) []byte {
	hdr := byte(shape.cfg.K/8-1) << 2
	if shape.cfg.Dim == 3 {
		hdr |= 1
	}
	if shape.shards > 0 {
		hdr |= 2
	}
	rng := rand.New(rand.NewSource(int64(shape.lines)))
	data := []byte{hdr}
	for i := 0; i < 2*fuzzSteps; i++ {
		data = append(data, byte(rng.Intn(256)))
	}
	return data
}

// FuzzWindowOps drives one ShardWindow through the ops both serving tiers
// produce — admissions (some at a resident's coordinates, so cells empty and
// refill), evictions by ID, the ±1 support steps other shards' admissions
// and evictions owe its residents, and Export→Reset→Import round trips —
// and holds it after every op to the naive window over all points, its own
// and the other shards': every resident's sequence, arrival, coordinates,
// count and verdict, its outlier and flip totals, and a digest that a round
// trip leaves alone.
//
// The first byte picks the window: dimension 2 or 3 (bit 0), every cell
// owned or a checkerboard of 2-cell blocks (bit 1), and K (bits 2–4). Every
// later byte is an op, and some ops read the bytes after them.
func FuzzWindowOps(f *testing.F) {
	for _, shape := range goldenShapes {
		f.Add(fuzzSeed(shape))
	}
	f.Add([]byte{0x04, 0, 10, 10, 0, 10, 11, 3, 0, 4, 0, 4, 0, 0, 10, 10, 6, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hdr := data[0]
		data = data[1:]
		cfg := Config{R: 1, K: 1 + int(hdr>>2)%8, Dim: 2 + int(hdr&1)}
		sw, err := NewShardWindow(ShardConfig{R: cfg.R, K: cfg.K, Dim: cfg.Dim, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		var owns OwnsFunc
		if hdr&2 != 0 {
			owns = func(c []int64) bool { return (c[0]>>1+c[1]>>1)&1 == 0 }
		}
		owned := func(p geom.Point) bool { return owns == nil || owns(sw.ix.CellCoords(p)) }
		nw := newNaiveWindow(cfg)
		nw.counted = owned
		// ownCells lists the cells of p's neighbourhood this window owns, in
		// ring order — the cells of a support step.
		sc := index.NewCountScratch()
		ownCells := func(p geom.Point) [][]int64 {
			var cells [][]int64
			sc.WalkNeighborhood(sw.ix.CellCoords(p), detect.L2Radius(cfg.Dim), func(c []int64) {
				if owns == nil || owns(c) {
					cells = append(cells, append([]int64(nil), c...))
				}
			})
			return cells
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		apply := func(op ShardOp, now time.Time) Verdict {
			t.Helper()
			verdicts, errsOut := sw.ApplyOps([]ShardOp{op}, now, owns)
			if errsOut[0] != nil {
				t.Fatalf("op %+v: %v", op, errsOut[0])
			}
			return verdicts[0]
		}
		var (
			nextID            uint64
			ingested, evicted uint64
			now               = time.Unix(1_700_000_000, 0)
		)
		admit := func(p geom.Point) {
			now = now.Add(time.Millisecond)
			nw.seq++
			if owned(p) {
				foreign := 0
				for _, r := range nw.res {
					if !owned(r.pt) && geom.WithinDist(p, r.pt, cfg.R) {
						foreign++
					}
				}
				v := apply(ShardOp{Kind: OpAdmit, Point: p, Seq: nw.seq, Foreign: foreign}, now)
				ingested++
				nw.mutate(func() { nw.res = append(nw.res, naiveResident{pt: p, seq: nw.seq, arrived: now}) })
				if n := nw.cnt[len(nw.cnt)-1]; v.Neighbors != n || v.Outlier != (n < cfg.K) || v.Seq != nw.seq {
					t.Fatalf("admit %d: verdict %+v, naive window counts %d", p.ID, v, n)
				}
				return
			}
			apply(ShardOp{Kind: OpSupport, Point: p, Cells: ownCells(p), Delta: +1}, now)
			nw.mutate(func() { nw.res = append(nw.res, naiveResident{pt: p, seq: nw.seq, arrived: now}) })
		}
		evict := func(i int) {
			r := nw.res[i]
			if owned(r.pt) {
				apply(ShardOp{Kind: OpEvict, ID: r.pt.ID}, now)
				evicted++
			} else {
				apply(ShardOp{Kind: OpSupport, Point: r.pt, Cells: ownCells(r.pt), Delta: -1}, now)
			}
			nw.mutate(func() { nw.res = append(nw.res[:i:i], nw.res[i+1:]...) })
		}
		for step := 0; len(data) > 0 && step < fuzzSteps; step++ {
			switch op := next(); {
			case len(nw.res) >= fuzzResidents || op%8 >= 5 && len(nw.res) > 0 && op%8 < 7:
				evict(int(next()) % len(nw.res))
			case op%8 == 7:
				digest, n := sw.Digest()
				exported := sw.Export()
				sw.Reset()
				if err := sw.Import(exported); err != nil {
					t.Fatalf("round trip: %v", err)
				}
				if d, m := sw.Digest(); d != digest || m != n {
					t.Fatalf("round trip moved the digest: %x/%d, was %x/%d", d, m, digest, n)
				}
			case op%8 == 4 && len(nw.res) > 0:
				nextID++
				at := nw.res[int(next())%len(nw.res)].pt.Coords
				admit(geom.Point{ID: nextID, Coords: append([]float64(nil), at...)})
			default:
				nextID++
				p := geom.Point{ID: nextID, Coords: make([]float64, cfg.Dim)}
				for j := range p.Coords {
					p.Coords[j] = float64(next()) / 40
				}
				admit(p)
			}
			assertShardState(t, sw, nw, owned, ingested, evicted)
		}
	})
}

// assertShardState fails unless sw holds exactly the naive window's
// residents that owned accepts, with their counts over all of nw's points,
// and the counters to match.
func assertShardState(t *testing.T, sw *ShardWindow, nw *naiveWindow, owned func(geom.Point) bool, ingested, evicted uint64) {
	t.Helper()
	var want []ExportedEntry
	outliers := 0
	for _, e := range nw.residents() {
		if owned(e.Point) {
			want = append(want, e)
			if e.Outlier {
				outliers++
			}
		}
	}
	got := sw.Export()
	if len(got) != len(want) {
		t.Fatalf("shard window holds %d residents, naive window %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Point.ID != w.Point.ID || !slices.Equal(g.Point.Coords, w.Point.Coords) || g.Seq != w.Seq ||
			!g.Arrived.Equal(w.Arrived) || g.Count != w.Count || g.Outlier != w.Outlier {
			t.Fatalf("resident %d: %+v, naive window says %+v", i, g, w)
		}
	}
	st := sw.Stats()
	if st.Len != len(want) || st.Outliers != outliers || st.FlipIn != nw.flipIn || st.FlipOut != nw.flipOut ||
		st.Ingested != ingested || st.Evicted != evicted {
		t.Fatalf("stats %+v; naive window: %d residents, %d outliers, flips %d/%d, %d ingested, %d evicted",
			st, len(want), outliers, nw.flipIn, nw.flipOut, ingested, evicted)
	}
}

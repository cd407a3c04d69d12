// The window, pinned: every verdict, the counters and flip totals after
// every batch, the digest every 1 000 points and the final outlier set of
// four seeded streams, hashed into testdata/window.golden. How residents,
// cells and neighbour walks are laid out in memory is free to change; what a
// window answers and holds is not.
package stream

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dod/internal/geom"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/window.golden from the windows this tree runs")

// goldenShape is one seeded stream and the window it runs through.
type goldenShape struct {
	name   string
	cfg    Config
	shards int // 0: one Window; otherwise that many ShardWindows under a checkerboard
	lines  int
	side   float64       // points are uniform on [0, side)^Dim
	step   time.Duration // the most the clock advances between batches
}

// goldenShapes are the streams of the golden. The 2-D windows hold about
// 1.5 points per occupied cell of side R/(2√2), so cells empty and come
// back all the time, and K sits near the mean neighbour count, so verdicts
// flip both ways.
var goldenShapes = []goldenShape{
	{name: "capacity-2d", cfg: Config{R: 1.2, K: 36, Dim: 2, Capacity: 1500}, lines: 6000, side: 13.4},
	{name: "capacity-ttl-2d", cfg: Config{R: 1.2, K: 30, Dim: 2, Capacity: 400, TTL: 10 * time.Second},
		lines: 5000, side: 8.7, step: 3 * time.Second},
	{name: "capacity-3d", cfg: Config{R: 1, K: 20, Dim: 3, Capacity: 800}, lines: 3000, side: 5.1},
	{name: "sharded-2d", cfg: Config{R: 1.2, K: 30, Dim: 2, Capacity: 600}, shards: 3, lines: 2400, side: 8.5},
}

// goldenHash is FNV-64a over little-endian words.
type goldenHash uint64

func newGoldenHash() goldenHash { return 14695981039346656037 }

func (h *goldenHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ goldenHash(v&0xff)) * 1099511628211
		v >>= 8
	}
}

func (h *goldenHash) bool(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

func (h *goldenHash) text(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*h = (*h ^ goldenHash(s[i])) * 1099511628211
	}
}

// stats folds every counter of st but the index occupancy, whose stripe
// split depends on the index's per-process hash seed.
func (h *goldenHash) stats(st Stats) {
	for _, v := range []uint64{uint64(st.Len), st.Seq, st.Ingested, st.Evicted, uint64(st.Outliers), st.FlipIn, st.FlipOut} {
		h.word(v)
	}
}

// goldenStream draws one batch at a time: mostly fresh uniform points, some
// at the coordinates of a recent point (a cell that emptied refills), a few
// repeating a recent ID (refused while it is resident) and a few of the
// wrong dimension.
type goldenStream struct {
	shape  goldenShape
	rng    *rand.Rand
	recent []geom.Point
	next   uint64
}

func (s *goldenStream) batch() []geom.Point {
	pts := make([]geom.Point, 1+s.rng.Intn(120))
	for i := range pts {
		s.next++
		p := geom.Point{ID: s.next, Coords: make([]float64, s.shape.cfg.Dim)}
		for j := range p.Coords {
			p.Coords[j] = s.rng.Float64() * s.shape.side
		}
		switch roll := s.rng.Intn(100); {
		case roll < 10 && len(s.recent) > 0:
			copy(p.Coords, s.recent[s.rng.Intn(len(s.recent))].Coords)
		case roll < 12 && len(s.recent) > 0:
			p.ID = s.recent[s.rng.Intn(len(s.recent))].ID
		case roll < 13:
			p.Coords = append(p.Coords, 0)
		}
		pts[i] = p
		if len(s.recent) < 200 {
			s.recent = append(s.recent, p)
		} else {
			s.recent[s.rng.Intn(len(s.recent))] = p
		}
	}
	return pts
}

// checkerOwner owns 2-cell blocks round-robin over three shards by block
// diagonal; once a shard has been drained its blocks go to the survivors by
// block column.
func checkerOwner(h *shardHarness, c []int64) string {
	name := fmt.Sprintf("s%d", ((c[0]>>1+c[1]>>1)%3+3)%3)
	for _, n := range h.names {
		if n == name {
			return name
		}
	}
	return h.names[((c[0]>>1)%int64(len(h.names))+int64(len(h.names)))%int64(len(h.names))]
}

// goldenRun writes one shape's golden lines to out.
func goldenRun(t *testing.T, shape goldenShape, out *strings.Builder) {
	s := &goldenStream{shape: shape, rng: rand.New(rand.NewSource(int64(len(shape.name))*7919 + int64(shape.lines)))}
	var (
		w       windowUnderTest
		digests func() []uint64
		h       *shardHarness
	)
	if shape.shards == 0 {
		single := newSingle(t, shape.cfg)
		w = single
		digests = func() []uint64 { d, n := single.w.sw.Digest(); return []uint64{uint64(n), d} }
	} else {
		h = newShardHarness(t, shape.shards, shape.cfg, 2)
		h.own = checkerOwner
		w = h
		digests = func() []uint64 {
			var out []uint64
			for _, name := range h.names {
				d, n := h.shards[name].Digest()
				out = append(out, uint64(n), d)
			}
			return out
		}
	}
	now := time.Unix(1_700_000_000, 0)
	lines, handoff := 0, false
	for b := 0; lines < shape.lines; b++ {
		if shape.step > 0 {
			now = now.Add(time.Duration(s.rng.Int63n(int64(shape.step))))
		}
		pts := s.batch()
		verdicts, errsOut := w.ingest(pts, now)
		hash := newGoldenHash()
		for i := range pts {
			v := verdicts[i]
			hash.word(v.ID)
			hash.word(v.Seq)
			hash.word(uint64(v.Neighbors))
			hash.bool(v.Outlier)
			hash.word(uint64(v.Evicted))
			hash.text(errKey(errsOut[i]))
		}
		st := w.stats()
		hash.stats(st)
		fmt.Fprintf(out, "%s batch=%d lines=%d len=%d flips=%d/%d fnv=%016x\n",
			shape.name, b, len(pts), st.Len, st.FlipIn, st.FlipOut, uint64(hash))
		before := lines
		lines += len(pts)
		if lines/1000 != before/1000 {
			fmt.Fprintf(out, "%s digest at=%d %x\n", shape.name, lines, digests())
		}
		if h != nil && !handoff && lines >= shape.lines/2 {
			h.drain("s2")
			handoff = true
			fmt.Fprintf(out, "%s handoff s2 at=%d %x\n", shape.name, lines, digests())
		}
	}
	snap := w.snapshot()
	hash := newGoldenHash()
	for _, id := range snap.OutlierIDs {
		hash.word(id)
	}
	fmt.Fprintf(out, "%s snapshot points=%d outliers=%d fnv=%016x\n", shape.name, len(snap.Points), len(snap.OutlierIDs), uint64(hash))
}

// TestWindowGolden runs every golden shape and compares the lines against
// testdata/window.golden. Regenerate with -update only for a deliberate
// change to what a window answers.
func TestWindowGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden pinned on amd64: other architectures may fuse the distance kernel's multiply-adds")
	}
	var out strings.Builder
	for _, shape := range goldenShapes {
		goldenRun(t, shape, &out)
	}
	path := filepath.Join("testdata", "window.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := out.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("window moved at golden line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("window moved: %d golden lines, want %d", len(gl), len(wl))
}

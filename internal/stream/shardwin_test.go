package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dod/internal/geom"
)

// shardHarness wires N ShardWindows together in-process: ownership is a
// deterministic hash of the cell block, and the harness plays the router —
// it keeps the global FIFO and turns each segment into one ordered op list
// per shard. The protocol the HTTP tier implements over the wire, minus the
// wire.
type shardHarness struct {
	t      *testing.T
	shards map[string]*ShardWindow
	names  []string
	block  int64
	// global FIFO metadata, as the router tracks it
	fifo    []uint64
	head    int
	cells   map[uint64][]int64
	coords  map[uint64]geom.Point
	seq     uint64
	evicted uint64
}

func newShardHarness(t *testing.T, n int, cfg ShardConfig, block int64) *shardHarness {
	h := &shardHarness{t: t, shards: map[string]*ShardWindow{}, block: block,
		cells: map[uint64][]int64{}, coords: map[uint64]geom.Point{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		sw, err := NewShardWindow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.shards[name] = sw
		h.names = append(h.names, name)
	}
	return h
}

// owner deterministically assigns a cell's block to a shard by rendezvous
// hashing, which shares the consistent-hash ring's key property: removing
// a shard relocates only the blocks that shard owned.
func (h *shardHarness) owner(cell []int64) string {
	var blockHash uint64 = 14695981039346656037
	for _, c := range cell {
		b := c / h.block
		if c%h.block != 0 && c < 0 {
			b--
		}
		blockHash ^= uint64(b)
		blockHash *= 1099511628211
	}
	best, bestW := "", uint64(0)
	for _, name := range h.names {
		w := blockHash
		for _, ch := range []byte(name) {
			w ^= uint64(ch)
			w *= 1099511628211
		}
		if best == "" || w > bestW {
			best, bestW = name, w
		}
	}
	return best
}

func (h *shardHarness) ownsFor(name string) OwnsFunc {
	return func(cell []int64) bool { return h.owner(cell) == name }
}

// score counts q's neighbors across every shard, capped at limit — the
// router's read-only support fan-out.
func (h *shardHarness) score(q geom.Point, limit int) int {
	byOwner := map[string][][]int64{}
	h.shards[h.names[0]].ix.NeighborhoodCells(q, func(c []int64) {
		o := h.owner(c)
		byOwner[o] = append(byOwner[o], append([]int64(nil), c...))
	})
	total := 0
	for o, cs := range byOwner {
		n, err := h.shards[o].ApplySupport(q, cs, limit)
		if err != nil {
			h.t.Fatal(err)
		}
		total += n
	}
	if total > limit {
		total = limit
	}
	return total
}

// processSegment mimics the router's ingest: the capacity evictions due
// before each point and the point's admission become one ordered op list
// per shard — own admit (its foreign count settled here by
// brute force over the live set), own evict, and the ±1 either owes the
// residents of every other shard — and each list is applied with one
// ApplyOps call, in no particular shard order.
func (h *shardHarness) processSegment(pts []geom.Point, capacity int, now time.Time) []Verdict {
	probe := h.shards[h.names[0]]
	lists := map[string][]ShardOp{}
	// touch files delta with every other shard owning a cell near p.
	touch := func(p geom.Point, owner string, delta int) {
		byOwner := map[string][][]int64{}
		probe.ix.NeighborhoodCells(p, func(c []int64) {
			if o := h.owner(c); o != owner {
				byOwner[o] = append(byOwner[o], append([]int64(nil), c...))
			}
		})
		for o, cells := range byOwner {
			lists[o] = append(lists[o], ShardOp{Kind: OpSupport, Point: p, Cells: cells, Delta: delta})
		}
	}
	type slot struct {
		shard string
		op    int
	}
	slots := make([]slot, len(pts))
	evictions := make([]int, len(pts))
	for i, p := range pts {
		for capacity > 0 && len(h.fifo)-h.head >= capacity {
			id := h.fifo[h.head]
			h.head++
			owner := h.owner(h.cells[id])
			lists[owner] = append(lists[owner], ShardOp{Kind: OpEvict, ID: id})
			touch(h.coords[id], owner, -1)
			delete(h.cells, id)
			delete(h.coords, id)
			h.evicted++
			evictions[i]++
		}
		cell := probe.ix.CellCoords(p)
		owner := h.owner(cell)
		foreign := 0
		for id, q := range h.coords {
			if h.owner(h.cells[id]) != owner && geom.WithinDist(p, q, probe.cfg.R) {
				foreign++
			}
		}
		h.seq++
		slots[i] = slot{owner, len(lists[owner])}
		lists[owner] = append(lists[owner], ShardOp{Kind: OpAdmit, Point: p, Seq: h.seq, Foreign: foreign})
		touch(p, owner, +1)
		h.fifo = append(h.fifo, p.ID)
		h.cells[p.ID] = append([]int64(nil), cell...)
		h.coords[p.ID] = p
	}
	results := map[string][]Verdict{}
	for name, ops := range lists {
		verdicts, opErrs := h.shards[name].ApplyOps(ops, now, h.ownsFor(name))
		for i, err := range opErrs {
			if err != nil {
				h.t.Fatalf("shard %s op %d (%+v): %v", name, i, ops[i], err)
			}
		}
		results[name] = verdicts
	}
	out := make([]Verdict, len(pts))
	for i, s := range slots {
		out[i] = results[s.shard][s.op]
		out[i].Evicted = evictions[i]
	}
	return out
}

// outlierIDs aggregates the current outlier set across shards.
func (h *shardHarness) outlierIDs() []uint64 {
	var ids []uint64
	for _, sw := range h.shards {
		for _, e := range sw.Export() {
			if e.Outlier {
				ids = append(ids, e.Point.ID)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestShardWindowMatchesWindow streams random points through 1-, 2- and
// 4-shard harnesses and a single-process Window with the same capacity,
// asserting every verdict, every score, the final outlier set, and the
// summed flip counters are identical.
func TestShardWindowMatchesWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				const (
					r        = 1.2
					k        = 3
					capacity = 120
					n        = 500
				)
				rng := rand.New(rand.NewSource(seed))
				ref, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity})
				if err != nil {
					t.Fatal(err)
				}
				h := newShardHarness(t, shards, ShardConfig{R: r, K: k, Dim: 2}, 4)
				base := time.Unix(1700000000, 0)
				for i := 0; i < n; i++ {
					p := geom.Point{ID: uint64(i + 1), Coords: []float64{
						rng.Float64() * 12, rng.Float64() * 12,
					}}
					now := base.Add(time.Duration(i) * time.Millisecond)
					want, err := ref.Process(p, now)
					if err != nil {
						t.Fatal(err)
					}
					got := h.processSegment([]geom.Point{p}, capacity, now)[0]
					if got != want {
						t.Fatalf("point %d: sharded verdict %+v != reference %+v", p.ID, got, want)
					}
					// Interleave read-only scores of random probe points.
					if i%7 == 0 {
						q := geom.Point{ID: 1_000_000 + uint64(i), Coords: []float64{
							rng.Float64() * 12, rng.Float64() * 12,
						}}
						wantSc, err := ref.ScorePoint(q)
						if err != nil {
							t.Fatal(err)
						}
						gotN := h.score(q, k)
						if gotN != wantSc.Neighbors || (gotN < k) != wantSc.Outlier {
							t.Fatalf("score %d: sharded %d != reference %+v", q.ID, gotN, wantSc)
						}
					}
				}
				// Final window state: identical outlier sets and flip totals.
				snap := ref.Snapshot()
				gotIDs := h.outlierIDs()
				if len(gotIDs) != len(snap.OutlierIDs) {
					t.Fatalf("outlier sets differ: sharded %d vs reference %d", len(gotIDs), len(snap.OutlierIDs))
				}
				for i := range gotIDs {
					if gotIDs[i] != snap.OutlierIDs[i] {
						t.Fatalf("outlier ID %d: %d != %d", i, gotIDs[i], snap.OutlierIDs[i])
					}
				}
				refStats := ref.Stats()
				var flipIn, flipOut, lenSum uint64
				for _, sw := range h.shards {
					st := sw.Stats()
					flipIn += st.FlipIn
					flipOut += st.FlipOut
					lenSum += uint64(st.Len)
				}
				if flipIn != refStats.FlipIn || flipOut != refStats.FlipOut {
					t.Fatalf("flips: sharded (%d,%d) != reference (%d,%d)",
						flipIn, flipOut, refStats.FlipIn, refStats.FlipOut)
				}
				if int(lenSum) != refStats.Len {
					t.Fatalf("resident count: sharded %d != reference %d", lenSum, refStats.Len)
				}
			})
		}
	}
}

// TestApplyOpsMatchesWindow is the ordered-segment property: a random
// stream at capacity, cut into segments of random length (from one line to
// more than the whole window, so admissions, evictions and both kinds of
// foreign delta interleave every way the router can produce), applied as
// per-shard ordered lists across 1, 2 and 4 shards, equals a single-process
// Window in every verdict, every resident's final count, and the flip totals.
func TestApplyOpsMatchesWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				const (
					r        = 1.2
					k        = 3
					capacity = 90
					n        = 700
				)
				rng := rand.New(rand.NewSource(seed))
				ref, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity})
				if err != nil {
					t.Fatal(err)
				}
				h := newShardHarness(t, shards, ShardConfig{R: r, K: k, Dim: 2}, 2)
				now := time.Unix(1700000000, 0)
				for id := uint64(1); id <= n; {
					size := 1 + rng.Intn(40)
					if rng.Intn(8) == 0 {
						size = capacity + rng.Intn(30)
					}
					var seg []geom.Point
					for ; len(seg) < size && id <= n; id++ {
						seg = append(seg, geom.Point{ID: id, Coords: []float64{rng.Float64() * 10, rng.Float64() * 10}})
					}
					want, errsOut := ref.ProcessBatch(seg, now)
					got := h.processSegment(seg, capacity, now)
					for i := range seg {
						if errsOut[i] != nil {
							t.Fatal(errsOut[i])
						}
						if got[i] != want[i] {
							t.Fatalf("point %d: sharded verdict %+v != reference %+v", seg[i].ID, got[i], want[i])
						}
					}
					now = now.Add(time.Millisecond)
				}
				refStats := ref.Stats()
				var flipIn, flipOut uint64
				residents := 0
				for _, sw := range h.shards {
					st := sw.Stats()
					flipIn += st.FlipIn
					flipOut += st.FlipOut
					for _, e := range sw.Export() {
						residents++
						re := ref.entries[e.Point.ID]
						if re == nil || re.count != e.Count || re.outlier != e.Outlier {
							t.Fatalf("resident %d: sharded count %d outlier %v, reference %+v", e.Point.ID, e.Count, e.Outlier, re)
						}
					}
				}
				if residents != refStats.Len {
					t.Fatalf("resident count: sharded %d != reference %d", residents, refStats.Len)
				}
				if flipIn != refStats.FlipIn || flipOut != refStats.FlipOut {
					t.Fatalf("flips: sharded (%d,%d) != reference (%d,%d)", flipIn, flipOut, refStats.FlipIn, refStats.FlipOut)
				}
			})
		}
	}
}

// TestShardWindowHandoff drains one shard mid-stream, imports its entries
// into the survivors under a changed ownership map, and checks the stream
// still matches the reference bit-for-bit afterwards.
func TestShardWindowHandoff(t *testing.T) {
	const (
		r        = 1.0
		k        = 3
		capacity = 80
		n        = 400
	)
	rng := rand.New(rand.NewSource(7))
	ref, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	h := newShardHarness(t, 3, ShardConfig{R: r, K: k, Dim: 2}, 4)
	base := time.Unix(1700000000, 0)
	feed := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := geom.Point{ID: uint64(i + 1), Coords: []float64{rng.Float64() * 10, rng.Float64() * 10}}
			now := base.Add(time.Duration(i) * time.Millisecond)
			want, err := ref.Process(p, now)
			if err != nil {
				t.Fatal(err)
			}
			got := h.processSegment([]geom.Point{p}, capacity, now)[0]
			if got != want {
				t.Fatalf("point %d: %+v != %+v", p.ID, got, want)
			}
		}
	}
	feed(0, n/2)

	// Drain shard s2: move its entries to the shard owning them after s2
	// leaves the ownership map.
	victim := "s2"
	exported := h.shards[victim].Export()
	h.names = []string{"s0", "s1"} // new topology: owner() no longer maps to s2
	byOwner := map[string][]ExportedEntry{}
	for _, e := range exported {
		cell := h.cells[e.Point.ID]
		byOwner[h.owner(cell)] = append(byOwner[h.owner(cell)], e)
	}
	for o, entries := range byOwner {
		if o == victim {
			t.Fatalf("cell still owned by drained shard")
		}
		if err := h.shards[o].Import(entries); err != nil {
			t.Fatal(err)
		}
	}
	delete(h.shards, victim)

	feed(n/2, n)

	snap := ref.Snapshot()
	gotIDs := h.outlierIDs()
	if len(gotIDs) != len(snap.OutlierIDs) {
		t.Fatalf("outlier sets differ after handoff: %d vs %d", len(gotIDs), len(snap.OutlierIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != snap.OutlierIDs[i] {
			t.Fatalf("outlier ID %d after handoff: %d != %d", i, gotIDs[i], snap.OutlierIDs[i])
		}
	}
}

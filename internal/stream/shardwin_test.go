package stream

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"dod/internal/detect"
	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/index"
	"dod/internal/obs"
)

// shardHarness wires N ShardWindows together in-process: ownership is a
// deterministic hash of the cell block, and the harness plays the router —
// it keeps the global FIFO and the window discipline (dimension, duplicate,
// capacity, TTL) and turns each segment into one ordered op list per shard.
// The protocol the HTTP tier implements over the wire, minus the wire.
type shardHarness struct {
	t      *testing.T
	cfg    Config // the global window's discipline
	shards map[string]*ShardWindow
	names  []string
	block  int64
	own    func(h *shardHarness, cell []int64) string // nil: rendezvous hashing of the block
	// global FIFO metadata, as the router tracks it
	fifo    []uint64
	head    int
	cells   map[uint64][]int64
	coords  map[uint64]geom.Point
	arrived map[uint64]time.Time
	seq     uint64
	retired Stats // monotone counters of shards drained out of the harness
}

func newShardHarness(t *testing.T, n int, cfg Config, block int64) *shardHarness {
	h := &shardHarness{t: t, cfg: cfg, shards: map[string]*ShardWindow{}, block: block,
		cells: map[uint64][]int64{}, coords: map[uint64]geom.Point{}, arrived: map[uint64]time.Time{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		sw, err := NewShardWindow(ShardConfig{R: cfg.R, K: cfg.K, Dim: cfg.Dim})
		if err != nil {
			t.Fatal(err)
		}
		h.shards[name] = sw
		h.names = append(h.names, name)
	}
	return h
}

func (h *shardHarness) name() string { return fmt.Sprintf("%d-shard harness", len(h.names)) }

// owner deterministically assigns a cell's block to a shard: by h.own if
// set, otherwise by rendezvous hashing, which shares the consistent-hash
// ring's key property: removing a shard relocates only the blocks that
// shard owned.
func (h *shardHarness) owner(cell []int64) string {
	if h.own != nil {
		return h.own(h, cell)
	}
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

// neighborhood calls fn with every cell of p's neighborhood, in ring order.
func (h *shardHarness) neighborhood(p geom.Point, fn func(cell []int64)) {
	ix := h.shards[h.names[0]].ix
	index.NewCountScratch().WalkNeighborhood(ix.CellCoords(p), detect.L2Radius(h.cfg.Dim), fn)
}

func (h *shardHarness) ownsFor(name string) OwnsFunc {
	return func(cell []int64) bool { return h.owner(cell) == name }
}

// score counts q's neighbors across every shard, capped at limit — the
// router's read-only support fan-out.
func (h *shardHarness) score(q geom.Point, limit int) int {
	byOwner := map[string][][]int64{}
	h.neighborhood(q, func(c []int64) {
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

// ingest mimics the router's ingest of one request at one instant. Each
// line is decided in the window's order — dimension, duplicate ID, then the
// capacity and TTL evictions due before it, then its admission — and what
// survives becomes one ordered op list per shard: own admit (its foreign
// count settled here by brute force over the live set), own evict, and the
// ±1 either owes the residents of every other shard. Each list is applied
// with one ApplyOps call, in no particular shard order.
func (h *shardHarness) ingest(pts []geom.Point, now time.Time) ([]Verdict, []error) {
	probe := h.shards[h.names[0]]
	lists := map[string][]ShardOp{}
	// touch files delta with every other shard owning a cell near p.
	touch := func(p geom.Point, owner string, delta int) {
		byOwner := map[string][][]int64{}
		h.neighborhood(p, func(c []int64) {
			if o := h.owner(c); o != owner {
				byOwner[o] = append(byOwner[o], append([]int64(nil), c...))
			}
		})
		for o, cells := range byOwner {
			lists[o] = append(lists[o], ShardOp{Kind: OpSupport, Point: p, Cells: cells, Delta: delta})
		}
	}
	evictionDue := func() bool {
		if h.head == len(h.fifo) {
			return false
		}
		if h.cfg.Capacity > 0 && len(h.fifo)-h.head >= h.cfg.Capacity {
			return true
		}
		return h.cfg.TTL > 0 && h.arrived[h.fifo[h.head]].Before(now.Add(-h.cfg.TTL))
	}
	type slot struct {
		shard string
		op    int
	}
	slots := make([]slot, len(pts))
	out := make([]Verdict, len(pts))
	errsOut := make([]error, len(pts))
	for i, p := range pts {
		if p.Dim() != h.cfg.Dim {
			errsOut[i] = &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: h.cfg.Dim}
			continue
		}
		if _, resident := h.coords[p.ID]; resident {
			errsOut[i] = &errs.DuplicateIDError{ID: p.ID}
			continue
		}
		for evictionDue() {
			id := h.fifo[h.head]
			h.head++
			owner := h.owner(h.cells[id])
			lists[owner] = append(lists[owner], ShardOp{Kind: OpEvict, ID: id})
			touch(h.coords[id], owner, -1)
			delete(h.cells, id)
			delete(h.coords, id)
			delete(h.arrived, id)
			out[i].Evicted++
		}
		cell := probe.ix.CellCoords(p)
		owner := h.owner(cell)
		foreign := 0
		for id, q := range h.coords {
			if h.owner(h.cells[id]) != owner && geom.WithinDist(p, q, h.cfg.R) {
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
		h.arrived[p.ID] = now
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
	for i, s := range slots {
		if errsOut[i] == nil {
			evicted := out[i].Evicted
			out[i] = results[s.shard][s.op]
			out[i].Evicted = evicted
		}
	}
	return out, errsOut
}

// residents aggregates every shard's entries into global arrival order.
func (h *shardHarness) residents() []ExportedEntry {
	var out []ExportedEntry
	for _, sw := range h.shards {
		out = append(out, sw.Export()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// stats sums the shards' counters, drained shards included; the sequence
// number is the router's.
func (h *shardHarness) stats() Stats {
	st := h.retired
	st.Seq = h.seq
	for _, sw := range h.shards {
		s := sw.Stats()
		st.Len += s.Len
		st.Ingested += s.Ingested
		st.Evicted += s.Evicted
		st.Outliers += s.Outliers
		st.FlipIn += s.FlipIn
		st.FlipOut += s.FlipOut
	}
	return st
}

func (h *shardHarness) snapshot() Snapshot { return snapshotOf(h.residents(), h.seq) }

// drain removes the named shard from the topology and hands its entries to
// the survivors under the new ownership map.
func (h *shardHarness) drain(victim string) {
	exported := h.shards[victim].Export()
	st := h.shards[victim].Stats()
	h.retired.Ingested += st.Ingested
	h.retired.Evicted += st.Evicted
	h.retired.FlipIn += st.FlipIn
	h.retired.FlipOut += st.FlipOut
	var names []string
	for _, n := range h.names {
		if n != victim {
			names = append(names, n)
		}
	}
	h.names = names // new topology: owner() no longer maps to the victim
	byOwner := map[string][]ExportedEntry{}
	for _, e := range exported {
		o := h.owner(h.cells[e.Point.ID])
		byOwner[o] = append(byOwner[o], e)
	}
	for o, entries := range byOwner {
		if err := h.shards[o].Import(entries); err != nil {
			h.t.Fatal(err)
		}
	}
	delete(h.shards, victim)
}

// TestShardWindowMatchesWindow streams a scene one line at a time through a
// single-process Window and a 1-, 2- or 4-shard harness, holding both to the
// naive window: every verdict, every interleaved read-only score, and after
// every few lines the complete state.
func TestShardWindowMatchesWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				sc := newScene(seed, sceneDim(seed))
				nw := newNaiveWindow(sc.cfg)
				single := newSingle(t, sc.cfg)
				h := newShardHarness(t, shards, sc.cfg, 4)
				for i := 0; i < sc.lines; i++ {
					now := sc.now // most lines share their predecessor's instant
					if i%4 == 0 {
						now = sc.tick()
					}
					pts, wantV, wantE := sc.batch(nw, 1, now)
					for _, w := range []windowUnderTest{single, h} {
						gotV, gotE := w.ingest(pts, now)
						assertLines(t, w.name(), pts, gotV, gotE, wantV, wantE)
					}
					// Interleave read-only scores of random probe points and
					// of residents (which must not count themselves).
					if i%5 == 0 {
						q := geom.Point{ID: 1_000_000 + uint64(i), Coords: sc.coords(sc.cfg.Dim)}
						if len(nw.res) > 0 && i%10 == 0 {
							q = nw.res[sc.rng.Intn(len(nw.res))].pt
						}
						want := nw.score(q)
						got, err := single.w.ScorePoint(q)
						if err != nil || got != want {
							t.Fatalf("score %d: Window %+v (%v), naive window says %+v", q.ID, got, err, want)
						}
						if gotN := h.score(q, sc.cfg.K); gotN != want.Neighbors {
							t.Fatalf("score %d: harness %d, naive window says %+v", q.ID, gotN, want)
						}
					}
					if i%20 == 0 {
						assertState(t, single, nw)
						assertState(t, h, nw)
					}
				}
				assertState(t, single, nw)
				assertState(t, h, nw)
			})
		}
	}
}

// TestApplyOpsMatchesWindow is the ordered-segment property: a scene cut
// into segments of random length (from one line to more than the whole
// window, so admissions, capacity and TTL evictions, refused lines and both
// kinds of foreign delta interleave every way the router can produce),
// applied by Window.ProcessBatch and as per-shard ordered lists across 1, 2
// and 4 shards, equals the naive window in every verdict and error, every
// resident's count and verdict, the counters and the snapshot.
func TestApplyOpsMatchesWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				sc := newScene(seed, sceneDim(seed))
				nw := newNaiveWindow(sc.cfg)
				windows := []windowUnderTest{newSingle(t, sc.cfg), newShardHarness(t, shards, sc.cfg, 2)}
				for lines := 0; lines < sc.lines; {
					now := sc.tick()
					pts, wantV, wantE := sc.batch(nw, sc.batchSize(), now)
					lines += len(pts)
					for _, w := range windows {
						gotV, gotE := w.ingest(pts, now)
						assertLines(t, w.name(), pts, gotV, gotE, wantV, wantE)
						assertState(t, w, nw)
					}
				}
			})
		}
	}
}

// TestShardWindowHandoff drains one shard mid-stream, imports its entries
// into the survivors under a changed ownership map, and checks the harness
// still equals the naive window — state and counters right after the
// handoff, every verdict after it.
func TestShardWindowHandoff(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sc := newScene(seed, sceneDim(seed))
		nw := newNaiveWindow(sc.cfg)
		h := newShardHarness(t, 3, sc.cfg, 4)
		feed := func(lines int) {
			for n := 0; n < lines; {
				now := sc.tick()
				pts, wantV, wantE := sc.batch(nw, 1+sc.rng.Intn(12), now)
				n += len(pts)
				gotV, gotE := h.ingest(pts, now)
				assertLines(t, h.name(), pts, gotV, gotE, wantV, wantE)
			}
			assertState(t, h, nw)
		}
		feed(sc.lines / 2)
		h.drain("s2")
		assertState(t, h, nw)
		feed(sc.lines / 2)
	}
}

// TestImportRejectsRepeatedID: a handoff payload that names one ID twice is
// refused whole with a duplicate-ID error, as one naming a resident is, and
// the window — residents, index and the support it answers — is unchanged.
func TestImportRejectsRepeatedID(t *testing.T) {
	sw, err := NewShardWindow(ShardConfig{R: 1.2, K: 3, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	applyOp(t, sw, t0, ShardOp{Kind: OpAdmit, Point: geom.Point{ID: 1, Coords: []float64{0, 0}}, Seq: 1})
	digest, points := sw.Digest()
	probe, cells := geom.Point{ID: 99, Coords: []float64{0.5, 0}}, [][]int64{{1, 0}, {0, 0}}
	ghost := ExportedEntry{Point: geom.Point{ID: 7, Coords: []float64{0.5, 0.1}}, Seq: 2, Arrived: t0}
	for name, payload := range map[string][]ExportedEntry{
		"a repeated ID":               {ghost, ghost},
		"a resident ID":               {{Point: geom.Point{ID: 1, Coords: []float64{3, 3}}, Seq: 3, Arrived: t0}},
		"a repeated ID after a fresh": {{Point: geom.Point{ID: 8, Coords: []float64{0.2, 0}}, Seq: 4, Arrived: t0}, ghost, ghost},
	} {
		err := sw.Import(payload)
		var dup *errs.DuplicateIDError
		if !errors.As(err, &dup) {
			t.Fatalf("Import(%s) = %v, want a duplicate-ID error", name, err)
		}
		if d, n := sw.Digest(); d != digest || n != points {
			t.Fatalf("Import(%s) changed the window: digest %x/%d, was %x/%d", name, d, n, digest, points)
		}
		st := sw.Stats()
		indexed := 0
		for _, n := range st.Occupancy {
			indexed += n
		}
		if st.Len != 1 || indexed != 1 {
			t.Fatalf("Import(%s): %d residents, %d indexed; want 1", name, st.Len, indexed)
		}
		if n, err := sw.ApplySupport(probe, cells, 0); err != nil || n != 1 {
			t.Fatalf("Import(%s): support %d (%v), want the one resident", name, n, err)
		}
	}
}

// TestOwnedWalksCountAsEnumerations: a shard's walk over the cells it owns
// is the index's one ring walk, so one admission and one eviction under an
// ownership predicate count two enumerations and no capped count.
func TestOwnedWalksCountAsEnumerations(t *testing.T) {
	reg := obs.NewRegistry()
	sw, err := NewShardWindow(ShardConfig{R: 1, K: 2, Dim: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	queries := func(op string) int64 {
		return reg.Counter("dod_index_queries_total", "index neighbor queries", obs.L("op", op)).Value()
	}
	owns := func(c []int64) bool { return c[0] >= 0 }
	ops := []ShardOp{
		{Kind: OpAdmit, Point: geom.Point{ID: 1, Coords: []float64{0.5, 0.5}}, Seq: 1},
		{Kind: OpEvict, ID: 1},
	}
	enumerate, count := queries("enumerate"), queries("count")
	if _, errsOut := sw.ApplyOps(ops, time.Unix(1700000000, 0), owns); errsOut[0] != nil || errsOut[1] != nil {
		t.Fatal(errsOut)
	}
	if got := queries("enumerate") - enumerate; got != 2 {
		t.Errorf("enumerate rose by %d, want 2", got)
	}
	if got := queries("count") - count; got != 0 {
		t.Errorf("count rose by %d, want 0", got)
	}
}

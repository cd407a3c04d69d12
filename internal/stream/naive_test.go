package stream

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
)

// naiveWindow is the DEFINITION of the sliding window, written to be read
// rather than run fast, and the reference every production window is tested
// against: Window and the 1-, 2- and 4-shard harness are the same state
// machine under different drivers, so comparing them with each other proves
// agreement, not correctness. The naive window shares nothing with them —
// no index, no incremental count, no flip rule:
//
//   - residents are a slice in arrival order;
//   - every neighbor count is recomputed from geom.WithinDist over all
//     resident pairs after every mutation;
//   - flips are counted by diffing the survivors' verdicts around each
//     mutation (outlier→inlier is a flip-in, inlier→outlier a flip-out);
//   - a line is decided in the documented order: dimension, duplicate ID,
//     capacity evictions, TTL evictions, admission. A refused line changes
//     nothing and consumes no sequence number.
type naiveWindow struct {
	cfg Config
	res []naiveResident // arrival order
	cnt []int           // cnt[i] is res[i]'s neighbor count, recomputed per mutation

	seq, ingested, evicted, flipIn, flipOut uint64

	lastEvicted []uint64 // IDs the most recent process call expired
	byCapacity  uint64   // evictions the capacity bound caused, of evicted

	// counted, when set, limits the flip tallies to the residents it
	// accepts — a shard window's, when the rest are other shards' points.
	counted func(geom.Point) bool
}

type naiveResident struct {
	pt      geom.Point
	seq     uint64
	arrived time.Time
}

func newNaiveWindow(cfg Config) *naiveWindow { return &naiveWindow{cfg: cfg} }

// counts recomputes every resident's neighbor count from the definition.
func (nw *naiveWindow) counts() []int {
	cnt := make([]int, len(nw.res))
	for i := range nw.res {
		for j := i + 1; j < len(nw.res); j++ {
			if geom.WithinDist(nw.res[i].pt, nw.res[j].pt, nw.cfg.R) {
				cnt[i]++
				cnt[j]++
			}
		}
	}
	return cnt
}

// mutate applies change to the resident list, recomputes every count and
// tallies the verdict flips of the residents that were there before and
// after.
func (nw *naiveWindow) mutate(change func()) {
	before := make(map[uint64]bool, len(nw.res))
	for i, r := range nw.res {
		before[r.pt.ID] = nw.cnt[i] < nw.cfg.K
	}
	change()
	nw.cnt = nw.counts()
	for i, r := range nw.res {
		was, survivor := before[r.pt.ID]
		if !survivor || nw.counted != nil && !nw.counted(r.pt) {
			continue
		}
		switch is := nw.cnt[i] < nw.cfg.K; {
		case was && !is:
			nw.flipIn++
		case !was && is:
			nw.flipOut++
		}
	}
}

func (nw *naiveWindow) evictOldest() {
	nw.lastEvicted = append(nw.lastEvicted, nw.res[0].pt.ID)
	nw.mutate(func() { nw.res = nw.res[1:] })
	nw.evicted++
}

func (nw *naiveWindow) evictExpired(now time.Time) int {
	if nw.cfg.TTL <= 0 {
		return 0
	}
	n := 0
	for len(nw.res) > 0 && nw.res[0].arrived.Before(now.Add(-nw.cfg.TTL)) {
		nw.evictOldest()
		n++
	}
	return n
}

func (nw *naiveWindow) resident(id uint64) bool {
	for _, r := range nw.res {
		if r.pt.ID == id {
			return true
		}
	}
	return false
}

func (nw *naiveWindow) process(p geom.Point, now time.Time) (Verdict, error) {
	nw.lastEvicted = nil
	if p.Dim() != nw.cfg.Dim {
		return Verdict{}, &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: nw.cfg.Dim}
	}
	for _, v := range p.Coords {
		// A point without a finite position has no distance to anything,
		// so it cannot be judged and is not admissible.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Verdict{}, errs.BadParams("point %d has a non-finite coordinate", p.ID)
		}
	}
	if nw.resident(p.ID) {
		return Verdict{}, &errs.DuplicateIDError{ID: p.ID}
	}
	evictions := 0
	for nw.cfg.Capacity > 0 && len(nw.res) >= nw.cfg.Capacity {
		nw.evictOldest()
		nw.byCapacity++
		evictions++
	}
	evictions += nw.evictExpired(now)
	nw.seq++
	nw.ingested++
	nw.mutate(func() {
		nw.res = append(nw.res, naiveResident{pt: p.Clone(), seq: nw.seq, arrived: now})
	})
	n := nw.cnt[len(nw.cnt)-1]
	return Verdict{ID: p.ID, Seq: nw.seq, Neighbors: n, Outlier: n < nw.cfg.K, Evicted: evictions}, nil
}

// score is the read-only query: p's neighbors among the residents with a
// different ID, capped at K.
func (nw *naiveWindow) score(p geom.Point) Score {
	n := 0
	for _, r := range nw.res {
		if r.pt.ID != p.ID && geom.WithinDist(p, r.pt, nw.cfg.R) {
			n++
		}
	}
	if n > nw.cfg.K {
		n = nw.cfg.K
	}
	return Score{ID: p.ID, Neighbors: n, Outlier: n < nw.cfg.K}
}

func (nw *naiveWindow) residents() []ExportedEntry {
	out := make([]ExportedEntry, len(nw.res))
	for i, r := range nw.res {
		out[i] = ExportedEntry{Point: r.pt.Clone(), Seq: r.seq, Arrived: r.arrived,
			Count: nw.cnt[i], Outlier: nw.cnt[i] < nw.cfg.K}
	}
	return out
}

func (nw *naiveWindow) stats() Stats {
	st := Stats{Len: len(nw.res), Seq: nw.seq, Ingested: nw.ingested, Evicted: nw.evicted,
		FlipIn: nw.flipIn, FlipOut: nw.flipOut}
	for _, c := range nw.cnt {
		if c < nw.cfg.K {
			st.Outliers++
		}
	}
	return st
}

func (nw *naiveWindow) snapshot() Snapshot { return snapshotOf(nw.residents(), nw.seq) }

// snapshotOf is the Snapshot a window holding the given residents (in
// arrival order) reports.
func snapshotOf(residents []ExportedEntry, seq uint64) Snapshot {
	snap := Snapshot{Points: make([]geom.Point, 0, len(residents)), Seq: seq}
	for _, e := range residents {
		snap.Points = append(snap.Points, e.Point)
		if e.Outlier {
			snap.OutlierIDs = append(snap.OutlierIDs, e.Point.ID)
		}
	}
	sort.Slice(snap.OutlierIDs, func(i, j int) bool { return snap.OutlierIDs[i] < snap.OutlierIDs[j] })
	return snap
}

// windowUnderTest is what a test needs of a production window to hold it
// against the naive one: the single-process Window and the shard harness
// both provide it.
type windowUnderTest interface {
	name() string
	ingest(pts []geom.Point, now time.Time) ([]Verdict, []error)
	residents() []ExportedEntry // arrival order
	stats() Stats               // Occupancy left nil
	snapshot() Snapshot
}

// singleWindow adapts *Window.
type singleWindow struct{ w *Window }

func (s singleWindow) name() string { return "Window" }
func (s singleWindow) ingest(pts []geom.Point, now time.Time) ([]Verdict, []error) {
	return s.w.ProcessBatch(pts, now)
}
func (s singleWindow) residents() []ExportedEntry {
	var out []ExportedEntry
	for _, e := range s.w.fifo[s.w.head:] {
		out = append(out, ExportedEntry{Point: e.pt.Clone(), Seq: e.seq, Arrived: e.arrived,
			Count: e.count, Outlier: e.outlier})
	}
	return out
}
func (s singleWindow) stats() Stats {
	st := s.w.Stats()
	st.Occupancy = nil
	return st
}
func (s singleWindow) snapshot() Snapshot { return s.w.Snapshot() }

// errKey classifies an error for comparison: parameter errors by family
// (their text is the implementation's), every other error by its text.
func errKey(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errs.ErrBadParams):
		return "bad-params"
	}
	return err.Error()
}

// assertLines fails unless got answers the batch exactly as the naive
// window did: every Verdict field and every error, slot by slot.
func assertLines(t *testing.T, who string, pts []geom.Point, gotV []Verdict, gotE []error, wantV []Verdict, wantE []error) {
	t.Helper()
	if len(gotV) != len(pts) || len(gotE) != len(pts) {
		t.Fatalf("%s: %d verdicts and %d errors for %d lines", who, len(gotV), len(gotE), len(pts))
	}
	for i := range pts {
		if errKey(gotE[i]) != errKey(wantE[i]) {
			t.Fatalf("%s: line %d (id %d): error %v, naive window says %v", who, i, pts[i].ID, gotE[i], wantE[i])
		}
		if gotV[i] != wantV[i] {
			t.Fatalf("%s: line %d (id %d): verdict %+v, naive window says %+v", who, i, pts[i].ID, gotV[i], wantV[i])
		}
	}
}

// assertState fails unless w holds exactly the naive window's state: every
// resident's sequence number, arrival, coordinates, count and verdict, the
// counters, and the snapshot.
func assertState(t *testing.T, w windowUnderTest, nw *naiveWindow) {
	t.Helper()
	got, want := w.residents(), nw.residents()
	if len(got) != len(want) {
		t.Fatalf("%s holds %d residents, naive window %d", w.name(), len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s resident %d: %+v, naive window says %+v", w.name(), i, got[i], want[i])
		}
	}
	if got, want := w.stats(), nw.stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s stats %+v, naive window says %+v", w.name(), got, want)
	}
	if got, want := w.snapshot(), nw.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s snapshot %+v, naive window says %+v", w.name(), got, want)
	}
}

// scene is one randomized window configuration and the generator state of
// the stream fed to it. Across seeds it covers capacity-only, TTL-only and
// doubly bounded windows; K = 1; and clock steps of zero, exactly one TTL
// (the boundary: not yet expired) and several TTLs (the whole window drains
// on the next line).
type scene struct {
	cfg    Config
	rng    *rand.Rand
	scale  float64
	lines  int            // how long a stream to draw: walks cost (2⌈2√d⌉+1)^d cells each
	drawn  map[string]int // awkward cases drawn so far, by name
	nextID uint64
	now    time.Time
}

const sceneTTL = 10 * time.Second

// sceneDim spreads seeds over 1, 2 and 3 dimensions, every third 3-D scene
// under each eviction discipline. Five dimensions — where one neighborhood
// is 11^5 cells, which the harness enumerates three times per op — get
// their own short test.
func sceneDim(seed int64) int { return []int{1, 2, 3, 2, 1, 2}[seed%6] }

func newScene(seed int64, dim int) *scene {
	rng := rand.New(rand.NewSource(seed))
	sc := &scene{
		rng: rng,
		// Scales that leave a full window with a handful of neighbors per
		// point, so verdicts flip both ways in every dimension.
		scale:  map[int]float64{1: 30, 2: 8, 3: 4.5, 5: 2.2}[dim],
		lines:  map[int]int{1: 160, 2: 160, 3: 70, 5: 12}[dim],
		drawn:  map[string]int{},
		nextID: 1,
		now:    time.Unix(1700000000, 0),
		cfg:    Config{R: 0.9 + rng.Float64()*0.6, K: 1 + rng.Intn(4), Dim: dim},
	}
	if seed%5 == 0 {
		sc.cfg.K = 1
	}
	capacity := 15 + rng.Intn(35)
	if dim == 5 {
		capacity = 4 + rng.Intn(3)
	}
	switch (seed / 3) % 3 {
	case 0:
		sc.cfg.Capacity = capacity
	case 1:
		sc.cfg.TTL = sceneTTL
	default:
		sc.cfg.Capacity = capacity
		sc.cfg.TTL = sceneTTL
	}
	return sc
}

// tick advances the scene clock between batches.
func (sc *scene) tick() time.Time {
	switch sc.rng.Intn(10) {
	case 0: // same instant
	case 1:
		sc.now = sc.now.Add(sceneTTL) // residents of the last batch sit exactly on the horizon
	case 2:
		sc.now = sc.now.Add(3 * sceneTTL) // everything resident expires
	default:
		sc.now = sc.now.Add(time.Duration(sc.rng.Int63n(int64(sceneTTL / 3))))
	}
	return sc.now
}

// batchSize draws a segment length: usually short, sometimes longer than
// the whole window.
func (sc *scene) batchSize() int {
	if sc.rng.Intn(8) == 0 {
		return sc.cfg.Capacity + 40 + sc.rng.Intn(20)
	}
	return 1 + sc.rng.Intn(25)
}

func (sc *scene) coords(dim int) []float64 {
	c := make([]float64, dim)
	for i := range c {
		c[i] = sc.rng.Float64() * sc.scale
	}
	return c
}

// line draws the next stream line given what the naive window holds right
// now, mixing the awkward cases in with fresh points: a resident's ID again,
// the ID of the FIFO head this very line would otherwise evict (a duplicate:
// evicts nothing, consumes no Seq), an ID re-used on the line after its
// eviction, a wrong-dimension line (at capacity it sits between two
// evictions), and a point coincident with a resident.
func (sc *scene) line(nw *naiveWindow) geom.Point {
	p := geom.Point{ID: sc.nextID, Coords: sc.coords(sc.cfg.Dim)}
	full := sc.cfg.Capacity > 0 && len(nw.res) >= sc.cfg.Capacity
	switch roll := sc.rng.Intn(100); {
	case roll < 5 && len(nw.res) > 0:
		sc.drawn["duplicate"]++
		p.ID = nw.res[sc.rng.Intn(len(nw.res))].pt.ID
	case roll < 10 && full:
		sc.drawn["duplicate of the head"]++
		p.ID = nw.res[0].pt.ID
	case roll < 18 && len(nw.lastEvicted) > 0:
		sc.drawn["id re-used after eviction"]++
		p.ID = nw.lastEvicted[sc.rng.Intn(len(nw.lastEvicted))]
	case roll < 22:
		sc.drawn["wrong dimension"]++
		p.Coords = sc.coords(sc.cfg.Dim + 1 - 2*sc.rng.Intn(2)) // dim ± 1, possibly 0
	case roll < 32 && len(nw.res) > 0:
		sc.drawn["coincident"]++
		p.Coords = append([]float64(nil), nw.res[sc.rng.Intn(len(nw.res))].pt.Coords...)
	}
	if p.ID == sc.nextID {
		sc.nextID++
	}
	return p
}

// batch draws size lines against the naive window, which decides each as it
// is drawn, and returns the lines with the naive window's answers.
func (sc *scene) batch(nw *naiveWindow, size int, now time.Time) ([]geom.Point, []Verdict, []error) {
	pts := make([]geom.Point, size)
	verdicts := make([]Verdict, size)
	errsOut := make([]error, size)
	for i := range pts {
		pts[i] = sc.line(nw)
		verdicts[i], errsOut[i] = nw.process(pts[i], now)
	}
	return pts, verdicts, errsOut
}

// newSingle builds the Window of a scene.
func newSingle(t *testing.T, cfg Config) singleWindow {
	t.Helper()
	w, err := NewWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return singleWindow{w}
}

// TestNaiveWindowMatchesBatchDetector anchors the reference itself: after
// every batch the naive window's outlier set is what the batch brute-force
// detector reports over the same residents. It also keeps the generator
// honest: over the seeds the other tests use, every awkward case is drawn,
// verdicts flip both ways, and some single batch of a doubly bounded window
// evicts by capacity and by TTL.
func TestNaiveWindowMatchesBatchDetector(t *testing.T) {
	drawn := map[string]int{}
	var flipIn, flipOut uint64
	mixedBatch := false
	for seed := int64(1); seed <= 20; seed++ {
		sc := newScene(seed, sceneDim(seed))
		nw := newNaiveWindow(sc.cfg)
		for lines := 0; lines < sc.lines; {
			evicted, byCapacity := nw.evicted, nw.byCapacity
			pts, _, _ := sc.batch(nw, sc.batchSize(), sc.tick())
			lines += len(pts)
			byCapacity = nw.byCapacity - byCapacity
			if byTTL := nw.evicted - evicted - byCapacity; byCapacity > 0 && byTTL > 0 {
				mixedBatch = true
			}
			snap := nw.snapshot()
			want := referenceOutliers(snap.Points, sc.cfg.R, sc.cfg.K)
			if !reflect.DeepEqual(snap.OutlierIDs, want) {
				t.Fatalf("seed %d: naive outliers %v != batch outliers %v", seed, snap.OutlierIDs, want)
			}
		}
		for name, n := range sc.drawn {
			drawn[name] += n
		}
		flipIn += nw.flipIn
		flipOut += nw.flipOut
	}
	for _, name := range []string{"duplicate", "duplicate of the head", "id re-used after eviction", "wrong dimension", "coincident"} {
		if drawn[name] < 20 {
			t.Errorf("generator drew %q only %d times over 20 seeds", name, drawn[name])
		}
	}
	if flipIn < 100 || flipOut < 100 {
		t.Errorf("only %d flips in and %d out over 20 seeds", flipIn, flipOut)
	}
	if !mixedBatch {
		t.Error("no batch evicted both by capacity and by TTL")
	}
	t.Logf("drawn %v, flips in %d out %d", drawn, flipIn, flipOut)
}

// TestWindowMatchesNaiveFiveDims holds Window to the naive window where the
// ring walk is deepest (⌈2√5⌉ = 5 rings, most of them pruned by distance):
// a few short scenes, one per eviction discipline.
func TestWindowMatchesNaiveFiveDims(t *testing.T) {
	for _, seed := range []int64{1, 4, 7} {
		sc := newScene(seed, 5)
		nw := newNaiveWindow(sc.cfg)
		win := newSingle(t, sc.cfg)
		for lines := 0; lines < sc.lines; {
			now := sc.tick()
			pts, wantV, wantE := sc.batch(nw, 1+sc.rng.Intn(6), now)
			lines += len(pts)
			gotV, gotE := win.ingest(pts, now)
			assertLines(t, win.name(), pts, gotV, gotE, wantV, wantE)
			assertState(t, win, nw)
		}
	}
}

// TestWindowKeepsBoundaryNeighbours holds Window to the naive window on two
// points within R of each other whose first sits a few ulps outside the
// rounded box of its own cell: each is the other's neighbour, so with K = 1
// neither is an outlier.
func TestWindowKeepsBoundaryNeighbours(t *testing.T) {
	cfg := Config{R: 0.0024449999406660635, K: 1, Dim: 3, Capacity: 10}
	pts := []geom.Point{
		{ID: 2, Coords: []float64{0.3190264305041504, -0.06705201526082812, 0.2216245557042108}},
		{ID: 1, Coords: []float64{0.3190264305041504, -0.06705201526082812, 0.21917955576354475}},
	}
	nw := newNaiveWindow(cfg)
	win := newSingle(t, cfg)
	now := time.Unix(1700000000, 0)
	for _, p := range pts {
		wantV, wantE := nw.process(p, now)
		gotV, gotE := win.ingest([]geom.Point{p}, now)
		assertLines(t, win.name(), []geom.Point{p}, gotV, gotE, []Verdict{wantV}, []error{wantE})
	}
	assertState(t, win, nw)
	if out := win.snapshot().OutlierIDs; len(out) != 0 {
		t.Fatalf("outliers %v, want none", out)
	}
}

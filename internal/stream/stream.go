// Package stream implements sliding-window distance-threshold outlier
// detection on top of the incremental grid index (internal/index).
//
// A window holds the most recent points of an unbounded stream — bounded by
// a count capacity, a time horizon, or both — and maintains every resident
// point's exact neighbor count incrementally:
//
//   - when a point arrives, its neighbors are enumerated once through the
//     index; each gains a neighbor, and any current outlier reaching k
//     neighbors flips to inlier;
//   - when the oldest point expires, its neighbors each lose a neighbor,
//     and any inlier dropping below k flips to outlier.
//
// The window's verdict set is therefore always exactly what the batch
// detectors would produce on the same contents: Snapshot() == the outliers
// of dod.DetectCentralized over Points(). The property tests assert this
// equivalence on randomized streams, and hold every window to a naive one
// that recomputes all counts from the definition after every mutation.
//
// There is one such state machine, ShardWindow (shardwin.go): residents,
// counts, verdicts, flip rules, counters and metrics for the grid cells it
// owns, mutated one ShardOp at a time. Lemma 3.1 reduces every cross-cell
// effect to neighbor counts, so a window whose cells are split over N owners
// and a window whose cells all have one owner differ only in the ownership
// predicate. Window (this file, batch.go) is the one-owner case plus the
// global-window discipline: capacity and TTL policy, the arrival FIFO and
// sequence numbers. The sharded tier's router keeps the same discipline for
// N ShardWindows behind RPC.
//
// Process (mutation) is serialized by the one window mutex; Score
// (read-only scoring of a query point against the window, without ingesting
// it) runs lock-free above the index's own striped locks, so scoring scales
// with index shards.
package stream

import (
	"sort"
	"sync/atomic"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/obs"
)

// Config parameterizes a sliding window.
type Config struct {
	// R is the neighbor distance threshold (Def. 2.1).
	R float64
	// K is the neighbor-count threshold: a window point is an outlier
	// iff it currently has fewer than K neighbors within R (Def. 2.2,
	// applied to the window contents).
	K int
	// Dim is the point dimensionality.
	Dim int
	// Capacity bounds the window point count; ingesting past it evicts
	// the oldest point first. Zero means no count bound.
	Capacity int
	// TTL bounds point age: points older than TTL relative to the
	// newest ingest time are evicted. Zero means no time bound.
	TTL time.Duration
	// Shards is the index shard count; default index.DefaultShards.
	Shards int
	// Obs, when non-nil, receives the window's and the underlying index's
	// metrics: ingest/evict/flip counters plus window-occupancy gauges.
	Obs *obs.Registry
}

// validate rejects unusable window bounds (R, K and Dim are the shard
// window's to check); failures match errs.ErrBadParams.
func (cfg Config) validate() error {
	if cfg.Capacity < 0 {
		return errs.BadParams("window capacity must be >= 0, got %d", cfg.Capacity)
	}
	if cfg.TTL < 0 {
		return errs.BadParams("window ttl must be >= 0, got %s", cfg.TTL)
	}
	if cfg.Capacity == 0 && cfg.TTL == 0 {
		return errs.BadParams("window needs a capacity or a ttl (or both)")
	}
	return nil
}

// entry is a resident window point with its live bookkeeping.
type entry struct {
	pt      geom.Point
	seq     uint64    // monotonic ingest sequence number
	arrived time.Time // ingest timestamp (drives TTL eviction)
	count   int       // exact current neighbor count within the window
	outlier bool      // count < K
}

// Verdict is the outcome of ingesting one point.
type Verdict struct {
	ID        uint64 // the point's ID
	Seq       uint64 // its monotonic sequence number
	Neighbors int    // exact neighbor count at admission
	Outlier   bool   // Neighbors < K at admission
	Evicted   int    // points this ingest expired from the window
}

// Score is the outcome of a read-only query.
type Score struct {
	ID        uint64 // the query point's ID
	Neighbors int    // neighbor count, early-terminated at K
	Outlier   bool   // Neighbors < K
}

// Stats is a snapshot of the window counters.
type Stats struct {
	Len       int    // resident points
	Seq       uint64 // last assigned sequence number
	Ingested  uint64 // total points processed
	Evicted   uint64 // total points expired
	Outliers  int    // current outliers in the window
	FlipIn    uint64 // outlier→inlier transitions caused by arrivals
	FlipOut   uint64 // inlier→outlier transitions caused by evictions
	Occupancy []int  // resident points per index shard
}

// Window is a sliding window of stream points with always-current outlier
// verdicts: the global-window discipline — capacity and TTL policy, arrival
// order, sequence numbers — over one ShardWindow that owns every cell. All
// methods are safe for concurrent use.
type Window struct {
	cfg Config
	sw  *ShardWindow // the resident state, and the one lock: sw.mu guards the fields below too

	closed atomic.Bool // set by Close; checked lock-free by Process/Score

	fifo []*entry // arrival order; fifo[head:] are resident
	head int
	seq  uint64
	op   ShardOp // the step in flight; a field because a local would escape to the heap per point
}

// NewWindow builds an empty sliding window.
func NewWindow(cfg Config) (*Window, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sw, err := NewShardWindow(ShardConfig{R: cfg.R, K: cfg.K, Dim: cfg.Dim, Shards: cfg.Shards, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	return &Window{cfg: cfg, sw: sw}, nil
}

// Process ingests p with the given arrival time, evicting expired points
// first, and returns p's admission verdict. Arrival times must be
// non-decreasing for TTL semantics to be meaningful; sequence numbers are
// assigned monotonically regardless.
func (w *Window) Process(p geom.Point, now time.Time) (Verdict, error) {
	if w.closed.Load() {
		return Verdict{}, errs.ErrClosed
	}
	w.sw.mu.Lock()
	defer w.sw.mu.Unlock()
	return w.processLocked(p, now)
}

// processLocked is one point's admission under the lock — the unit both
// Process and ProcessBatch are built from, so a batch is exactly a sequence
// of single-point ingests sharing one lock acquisition. It decides the line
// (a refused point changes nothing and consumes no sequence number), then
// spends it as shard-window steps: one OpEvict per point the capacity or the
// TTL expires, one OpAdmit with no foreign neighbors.
func (w *Window) processLocked(p geom.Point, now time.Time) (Verdict, error) {
	if err := w.sw.admissibleLocked(p); err != nil {
		return Verdict{}, err
	}
	evictions := 0
	if w.cfg.Capacity > 0 {
		for w.len() >= w.cfg.Capacity {
			w.evictOldest(now)
			evictions++
		}
	}
	evictions += w.evictExpired(now)

	w.op = ShardOp{Kind: OpAdmit, Point: p, Seq: w.seq + 1}
	e, err := w.sw.stepLocked(&w.op, now, nil)
	w.op.Point = geom.Point{} // p's coordinates are the caller's to reuse
	if err != nil {
		return Verdict{}, err
	}
	w.seq++
	w.fifo = append(w.fifo, e)
	v := e.verdict()
	v.Evicted = evictions
	return v, nil
}

// EvictExpired expires every point older than the TTL horizon relative to
// now and returns how many were evicted. Process calls this implicitly;
// servers may also call it on a timer so idle windows drain.
func (w *Window) EvictExpired(now time.Time) int {
	w.sw.mu.Lock()
	defer w.sw.mu.Unlock()
	return w.evictExpired(now)
}

func (w *Window) evictExpired(now time.Time) int {
	if w.cfg.TTL <= 0 {
		return 0
	}
	horizon := now.Add(-w.cfg.TTL)
	n := 0
	for w.len() > 0 && w.fifo[w.head].arrived.Before(horizon) {
		w.evictOldest(now)
		n++
	}
	return n
}

// len is the resident point count; callers hold the lock.
func (w *Window) len() int { return len(w.fifo) - w.head }

// evictOldest expires the head of the FIFO. Callers hold the lock.
func (w *Window) evictOldest(now time.Time) {
	victim := w.fifo[w.head]
	w.fifo[w.head] = nil
	w.head++
	w.op = ShardOp{Kind: OpEvict, ID: victim.pt.ID}
	_, _ = w.sw.stepLocked(&w.op, now, nil) // evicting a resident cannot fail, and the FIFO holds nothing else
	// Reclaim the drained prefix once it dominates the backing array.
	if w.head > 64 && w.head*2 > len(w.fifo) {
		w.fifo = append([]*entry(nil), w.fifo[w.head:]...)
		w.head = 0
	}
}

// ScorePoint scores a query point against the current window contents
// without ingesting it: would p be an outlier if judged against the
// resident points? The neighbor count early-terminates at K. A resident
// point may score itself (its own ID is excluded from its count, matching
// batch semantics). ScorePoint takes no window lock — it reads through the
// index's striped locks only, so concurrent scoring scales with shards.
func (w *Window) ScorePoint(p geom.Point) (Score, error) {
	if w.closed.Load() {
		return Score{}, errs.ErrClosed
	}
	n, err := w.sw.ix.NeighborCount(p, w.cfg.K)
	if err != nil {
		return Score{}, err
	}
	return Score{ID: p.ID, Neighbors: n, Outlier: n < w.cfg.K}, nil
}

// Close marks the window closed: subsequent Process and ScorePoint calls
// fail with errs.ErrClosed. Close is idempotent; the window holds no
// goroutines or file handles, so Close exists for API symmetry and to make
// lifecycle bugs loud rather than silent. Snapshot and Stats keep working
// so a closed window can still be inspected.
func (w *Window) Close() error {
	w.closed.Store(true)
	return nil
}

// A Snapshot holds the resident points in arrival order and the IDs of the
// current outliers, sorted ascending. The pair is consistent: it reflects
// one instant between Process calls, so DetectCentralized over Points must
// yield exactly OutlierIDs.
type Snapshot struct {
	Points     []geom.Point
	OutlierIDs []uint64
	Seq        uint64
}

// Snapshot atomically captures the window contents and verdicts.
func (w *Window) Snapshot() Snapshot {
	w.sw.mu.Lock()
	defer w.sw.mu.Unlock()
	snap := Snapshot{
		Points: make([]geom.Point, 0, w.len()),
		Seq:    w.seq,
	}
	for _, e := range w.fifo[w.head:] {
		snap.Points = append(snap.Points, e.pt.Clone())
		if e.outlier {
			snap.OutlierIDs = append(snap.OutlierIDs, e.pt.ID)
		}
	}
	sort.Slice(snap.OutlierIDs, func(i, j int) bool { return snap.OutlierIDs[i] < snap.OutlierIDs[j] })
	return snap
}

// Stats returns a consistent snapshot of the window counters plus the
// per-shard index occupancy.
func (w *Window) Stats() Stats {
	w.sw.mu.Lock()
	defer w.sw.mu.Unlock()
	st := w.sw.statsLocked()
	st.Seq = w.seq
	return st
}

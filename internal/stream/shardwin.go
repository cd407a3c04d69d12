package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dod/internal/detect"
	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/index"
	"dod/internal/obs"
)

// ShardWindow is the resident-state machine of the sliding window: the
// points of the grid cells it owns, each with its always-current exact
// neighbor count and verdict, the flip rules that keep them current, and the
// counters and dod_stream_* metrics that tally them — where a point's
// neighbors may live in cells some other ShardWindow owns.
//
// The paper's Lemma 3.1 makes this decomposition exact: a point's verdict
// depends only on neighbor COUNTS from the bounded cell neighborhood, so
// cross-shard effects reduce to count queries and count deltas — no point
// data needs to be replicated. Every operation that would touch a foreign
// cell is split: cells this shard owns (per the caller-supplied ownership
// predicate) are processed against the local index, and the remaining cells
// are the router's to settle — an admission's foreign neighbor count arrives
// with it, and what an admission or eviction elsewhere owes this shard's
// residents arrives as a ±1 step of the same ordered op list. ApplyOps is
// the one entry that admits, evicts or applies a delta, on a primary and on
// a standby replaying its primary's log alike.
//
// Window is this type with every cell owned (a nil predicate, every foreign
// count zero), plus the discipline a ShardWindow does not have: capacity,
// TTL, arrival order and sequence numbers are properties of the GLOBAL
// window, so Window keeps them in process and the router keeps them for N
// shards, each commanding evictions by point ID. One machine under both is
// what keeps the sharded tier's eviction sequence — and therefore every
// verdict flip — bit-identical to the single-process window.
type ShardWindow struct {
	cfg ShardConfig
	ix  *index.Index
	met *windowMetrics // nil when unobserved

	mu       sync.Mutex
	sc       *index.CountScratch // the neighborhood walk's buffers, for every walk under mu
	rec      OpRecorder          // nil when unreplicated
	slots    slots               // the residents, by the tag the index files each under
	entries  map[uint64]uint32   // resident ID → tag, for the operations that name a resident by ID
	ingested uint64
	evicted  uint64
	outliers int
	flipIn   uint64
	flipOut  uint64
}

// windowMetrics are the obs instruments of one ShardWindow. The counters
// are incremented under mu alongside the Stats fields; the occupancy gauges
// read the live fields at scrape time.
type windowMetrics struct {
	ingested *obs.Counter
	evicted  *obs.Counter
	flipIn   *obs.Counter
	flipOut  *obs.Counter
}

// OpRecorder observes every successful window mutation for replication:
// each ApplyOps step that succeeded, as the very op that was applied and the
// instant it was applied at, and each import. Calls arrive with the window
// mutex held, so the recorded order IS the mutation order — replaying the
// records in sequence rebuilds the window bit for bit. op is only valid
// during the call.
type OpRecorder interface {
	RecordOp(op *ShardOp, now time.Time)
	RecordImport(entries []ExportedEntry)
}

// SetRecorder attaches (or, with nil, detaches) the mutation recorder.
func (sw *ShardWindow) SetRecorder(rec OpRecorder) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.rec = rec
}

// ShardConfig parameterizes a ShardWindow. R, K and Dim must match the
// router's topology exactly, or counts will disagree across shards.
type ShardConfig struct {
	R      float64
	K      int
	Dim    int
	Shards int // index lock stripes, not serving shards
	Obs    *obs.Registry
}

// OwnsFunc reports whether this shard owns a grid cell under the current
// topology. The cell slice is only valid during the call. A nil OwnsFunc
// owns every cell.
type OwnsFunc func(cell []int64) bool

// NewShardWindow builds an empty shard window.
func NewShardWindow(cfg ShardConfig) (*ShardWindow, error) {
	if err := (detect.Params{R: cfg.R, K: cfg.K}).Validate(); err != nil {
		return nil, err
	}
	if cfg.Dim < 1 {
		return nil, errs.BadParams("window dimension must be >= 1, got %d", cfg.Dim)
	}
	ix, err := index.New(index.Config{Dim: cfg.Dim, R: cfg.R, Shards: cfg.Shards, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	sw := &ShardWindow{
		cfg:     cfg,
		ix:      ix,
		sc:      index.NewCountScratch(),
		slots:   slots{dim: cfg.Dim},
		entries: make(map[uint64]uint32),
	}
	if reg := cfg.Obs; reg != nil {
		sw.met = &windowMetrics{
			ingested: reg.Counter("dod_stream_ingested_total", "points admitted to the sliding window"),
			evicted:  reg.Counter("dod_stream_evicted_total", "points expired from the sliding window"),
			flipIn: reg.Counter("dod_stream_verdict_flips_total",
				"verdict transitions caused by window churn", obs.L("direction", "outlier_to_inlier")),
			flipOut: reg.Counter("dod_stream_verdict_flips_total",
				"verdict transitions caused by window churn", obs.L("direction", "inlier_to_outlier")),
		}
		reg.GaugeFunc("dod_stream_window_points", "points currently resident in the window (on a shard: its slice)",
			func() float64 { sw.mu.Lock(); defer sw.mu.Unlock(); return float64(len(sw.entries)) })
		reg.GaugeFunc("dod_stream_outliers", "current outliers in the window (on a shard: its slice)",
			func() float64 { sw.mu.Lock(); defer sw.mu.Unlock(); return float64(sw.outliers) })
	}
	return sw, nil
}

// Config returns the shard window configuration.
func (sw *ShardWindow) Config() ShardConfig { return sw.cfg }

// bumpOwned adjusts by delta the count of each of p's neighbors in the
// cells this shard owns (all, when owns is nil) and returns how many it
// found, on the index's ring walk. Every tag the walk hands back is a
// resident's — it skips p's own ID, and p is not (or no longer) anyone
// else's — so the slot is found without a lookup. Callers hold sw.mu.
func (sw *ShardWindow) bumpOwned(p geom.Point, owns OwnsFunc, delta int) (int, error) {
	return sw.ix.Neighbors(sw.sc, p, owns, 0, func(tag uint32) { sw.bump(sw.slots.at(tag), delta) })
}

// bump adjusts one resident entry's neighbor count by delta and keeps its
// verdict current — the one place a verdict flips. Since outlier ⇔ count < K
// held before, an arrival (+1) can only turn an outlier reaching K neighbors
// into an inlier, a departure (−1) can only turn an inlier dropping below K
// into an outlier. Callers hold sw.mu.
func (sw *ShardWindow) bump(e *entry, delta int) {
	e.count += delta
	if e.outlier == (e.count < sw.cfg.K) {
		return
	}
	e.outlier = !e.outlier
	if e.outlier {
		sw.outliers++
		sw.flipOut++
		if sw.met != nil {
			sw.met.flipOut.Inc()
		}
	} else {
		sw.outliers--
		sw.flipIn++
		if sw.met != nil {
			sw.met.flipIn.Inc()
		}
	}
}

// admissibleLocked is the admission check of every window: p has the
// window's dimension, a finite position (a NaN or ±Inf coordinate has no
// distance to anything, and the grid would file it in an arbitrary cell and
// count it by cell adjacency), and an ID that is not resident. A refused
// point changes nothing. Callers hold sw.mu.
func (sw *ShardWindow) admissibleLocked(p geom.Point) error {
	if p.Dim() != sw.cfg.Dim {
		return &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: sw.cfg.Dim}
	}
	for i, v := range p.Coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errs.BadParams("point %d: coordinate %d is %g, want a finite value", p.ID, i, v)
		}
	}
	if _, dup := sw.entries[p.ID]; dup {
		return &errs.DuplicateIDError{ID: p.ID}
	}
	return nil
}

// admitLocked files p, which this shard owns, as the global window's seq-th
// point. Whoever keeps the discipline has already evicted what the global
// capacity/TTL required and settled foreign, p's neighbor count on other
// shards at this instant, so admission only counts the neighbors in owned
// cells (each gains one) and files the entry, whose count and verdict at
// this instant are p's admission verdict. Callers hold sw.mu.
func (sw *ShardWindow) admitLocked(p geom.Point, seq uint64, now time.Time, owns OwnsFunc, foreign int) (*entry, error) {
	if err := sw.admissibleLocked(p); err != nil {
		return nil, err
	}
	// Past that check neither index call below can fail, so a refused
	// admission leaves the window untouched.
	n, err := sw.bumpOwned(p, owns, +1)
	if err != nil {
		return nil, err
	}
	n += foreign
	e, err := sw.fileLocked(p, seq, now, n, n < sw.cfg.K)
	if err != nil {
		return nil, err
	}
	sw.ingested++
	if sw.met != nil {
		sw.met.ingested.Inc()
	}
	return e, nil
}

// fileLocked copies p into a free slot with the given bookkeeping and
// files it in the index under the slot's tag — the resident half of an
// admission and of an import. Nothing that aliases the slot leaves the
// lock: Export, Snapshot and CoordsOf copy. Callers hold sw.mu and have
// checked p admissible.
func (sw *ShardWindow) fileLocked(p geom.Point, seq uint64, arrived time.Time, count int, outlier bool) (*entry, error) {
	tag, e := sw.slots.alloc(p)
	if err := sw.ix.InsertTag(e.pt, tag); err != nil {
		sw.slots.release(tag)
		return nil, err
	}
	e.seq, e.arrived, e.count, e.outlier = seq, arrived, count, outlier
	if outlier {
		sw.outliers++
	}
	sw.entries[p.ID] = tag
	return e, nil
}

// verdict is e's admission verdict when read at the instant e was filed.
func (e *entry) verdict() Verdict {
	return Verdict{ID: e.pt.ID, Seq: e.seq, Neighbors: e.count, Outlier: e.outlier}
}

// ShardOpKind tags one step of an ordered segment; see ApplyOps.
type ShardOpKind byte

const (
	// OpAdmit admits Point, which this shard owns, as the global window's
	// Seq-th point. Foreign is its cross-shard neighbor count at that
	// instant, already settled by the router.
	OpAdmit ShardOpKind = iota + 1
	// OpEvict expires the resident ID, which this shard owns.
	OpEvict
	// OpSupport is another shard's admission (Delta +1) or eviction
	// (Delta -1) of Point, seen from here: this shard's residents that
	// neighbor Point in Cells — the cells of Point's neighborhood this
	// shard owns — gain or lose one neighbor.
	OpSupport
)

// ShardOp is one step of an ordered segment — the one window-mutation type
// of the shard tier: the router sends it, ApplyOps applies it, the
// replication log records it and a standby replays it (wire form in
// wire.go). Which fields are set depends on Kind.
type ShardOp struct {
	Kind    ShardOpKind
	Point   geom.Point // OpAdmit, OpSupport
	Seq     uint64     // OpAdmit
	Foreign int        // OpAdmit
	ID      uint64     // OpEvict
	Cells   [][]int64  // OpSupport
	Delta   int        // OpSupport
}

// ApplyOps applies this shard's share of a router segment: every admission
// and eviction of the segment that touches a cell this shard owns, in the
// global window's order, under one lock and calling no one. Since every
// shard sees every operation on its cells in the one global order, each
// resident's count walks through exactly the values it takes when one
// window owns every cell, and so do the flip totals. Verdicts and errors
// are index-aligned with ops (a Verdict only for OpAdmit); a failed op
// leaves its error, changes nothing, is not recorded, and the run continues
// — as an OpEvict does whose resident is gone (lost when a lagging standby
// was promoted).
func (sw *ShardWindow) ApplyOps(ops []ShardOp, now time.Time, owns OwnsFunc) ([]Verdict, []error) {
	verdicts := make([]Verdict, len(ops))
	errsOut := make([]error, len(ops))
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i := range ops {
		var e *entry
		if e, errsOut[i] = sw.stepLocked(&ops[i], now, owns); e != nil {
			verdicts[i] = e.verdict()
		}
	}
	return verdicts, errsOut
}

// stepLocked applies one op — the unit ApplyOps loops over and Window spends
// its evictions and admissions as — and, if it succeeded, records it for
// replication as itself, so record order is mutation order. An OpAdmit hands
// back the entry it filed. Callers hold sw.mu.
func (sw *ShardWindow) stepLocked(op *ShardOp, now time.Time, owns OwnsFunc) (e *entry, err error) {
	switch op.Kind {
	case OpAdmit:
		e, err = sw.admitLocked(op.Point, op.Seq, now, owns, op.Foreign)
	case OpEvict:
		err = sw.evictLocked(op.ID, owns)
	case OpSupport:
		_, err = sw.ix.NeighborsInCells(sw.sc, op.Point, op.Cells, 0, func(tag uint32) { sw.bump(sw.slots.at(tag), op.Delta) })
	default:
		err = fmt.Errorf("unknown shard op kind %d", op.Kind)
	}
	if err == nil && sw.rec != nil {
		sw.rec.RecordOp(op, now)
	}
	return e, err
}

// evictLocked expires the resident with the given ID: its neighbors in
// owned cells each lose a count (with inlier→outlier flips) and the point
// leaves the index. Neighbors on other shards lose theirs through the
// OpSupport the router files with their owners. The victim's slot is freed
// for the next admission; the last resident leaving a window that grew past
// one chunk of slots lets the slots and the ID map go. Callers hold sw.mu.
func (sw *ShardWindow) evictLocked(id uint64, owns OwnsFunc) error {
	tag, ok := sw.entries[id]
	if !ok {
		return fmt.Errorf("evict %d: not resident on this shard", id)
	}
	victim := sw.slots.at(tag)
	if _, err := sw.bumpOwned(victim.pt, owns, -1); err != nil {
		return err
	}
	sw.ix.Remove(victim.pt)
	delete(sw.entries, id)
	if victim.outlier {
		sw.outliers--
	}
	sw.slots.release(tag)
	if len(sw.entries) == 0 && sw.slots.next > slotChunkLen {
		sw.dropResidentsLocked()
	}
	sw.evicted++
	if sw.met != nil {
		sw.met.evicted.Inc()
	}
	return nil
}

// dropResidentsLocked replaces the slots and the ID map with empty ones,
// releasing what they grew to. Callers hold sw.mu and have taken every
// resident out of the index.
func (sw *ShardWindow) dropResidentsLocked() {
	sw.slots = slots{dim: sw.cfg.Dim}
	sw.entries = make(map[uint64]uint32)
}

// ApplySupport answers one read-only boundary-support probe (Lemma 3.1):
// p's neighbor count among the given cells — all of which this shard should
// own — early-terminated at limit when limit > 0 (scoring semantics,
// matching Window.ScorePoint's NeighborCount cap). It changes nothing; the
// ±1 deltas a mutation owes this shard arrive through ApplyOps.
func (sw *ShardWindow) ApplySupport(p geom.Point, cells [][]int64, limit int) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.ix.NeighborsInCells(sw.sc, p, cells, limit, nil)
}

// CoordsOf returns a copy of each listed resident's coordinates, in order —
// what the router, which stores none, needs to command an eviction's
// cross-shard half. The copies are views into one array. A nil slot marks
// an ID that is not resident here.
func (sw *ShardWindow) CoordsOf(ids []uint64) [][]float64 {
	out := make([][]float64, len(ids))
	flat := make([]float64, 0, len(ids)*sw.cfg.Dim)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i, id := range ids {
		if tag, ok := sw.entries[id]; ok {
			lo := len(flat)
			flat = append(flat, sw.slots.at(tag).pt.Coords...)
			out[i] = flat[lo:len(flat):len(flat)]
		}
	}
	return out
}

// Export captures every resident entry in global-sequence order — the
// drain/handoff payload. Counts travel verbatim: relocating a point never
// changes anyone's neighbor relationships.
func (sw *ShardWindow) Export() []ExportedEntry {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]ExportedEntry, 0, len(sw.entries))
	for _, tag := range sw.entries {
		e := sw.slots.at(tag)
		out = append(out, ExportedEntry{
			Point:   e.pt.Clone(),
			Seq:     e.seq,
			Arrived: e.arrived,
			Count:   e.count,
			Outlier: e.outlier,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Import adopts entries exported from another shard during drain/handoff,
// inserting each point into the local index with its live bookkeeping
// intact. One inadmissible entry — a resident ID, or an ID the payload
// repeats — fails the whole import and changes nothing.
func (sw *ShardWindow) Import(entries []ExportedEntry) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	seen := make(map[uint64]struct{}, len(entries))
	for _, in := range entries {
		if err := sw.admissibleLocked(in.Point); err != nil {
			return err
		}
		if _, dup := seen[in.Point.ID]; dup {
			return &errs.DuplicateIDError{ID: in.Point.ID}
		}
		seen[in.Point.ID] = struct{}{}
	}
	for _, in := range entries {
		if _, err := sw.fileLocked(in.Point, in.Seq, in.Arrived, in.Count, in.Outlier); err != nil {
			return err
		}
	}
	if sw.rec != nil {
		sw.rec.RecordImport(entries)
	}
	return nil
}

// ExportedEntry is one resident point with its live bookkeeping, as moved
// between shards during drain/handoff and aggregated by the router for
// whole-window snapshots.
type ExportedEntry struct {
	Point   geom.Point
	Seq     uint64
	Arrived time.Time
	Count   int
	Outlier bool
}

// Digest returns a deterministic FNV-64a hash over the window contents in
// canonical (global-sequence) order, plus the resident count. Every field
// a verdict can depend on is folded in — sequence, ID, arrival instant,
// neighbor count, verdict, and the exact coordinate bits — so two windows
// with equal digests hold bit-identical verdict state. This is the
// anti-entropy check of the replication layer: a standby that replayed the
// primary's op log to position S must produce the digest the primary had
// at S.
func (sw *ShardWindow) Digest() (uint64, int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ents := make([]*entry, 0, len(sw.entries))
	for _, tag := range sw.entries {
		ents = append(ents, sw.slots.at(tag))
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, e := range ents {
		mix(e.seq)
		mix(e.pt.ID)
		mix(uint64(e.arrived.UnixNano()))
		mix(uint64(int64(e.count)))
		if e.outlier {
			mix(1)
		} else {
			mix(0)
		}
		for _, c := range e.pt.Coords {
			mix(math.Float64bits(c))
		}
	}
	return h, len(ents)
}

// Reset drops every resident entry from the window and the index, and the
// slots that held them — the standby's preparation for installing a
// bootstrap snapshot. Monotone counters (ingested, evicted, flips) are
// deliberately preserved: they are instruments, not window state, and
// resetting them would break metric monotonicity.
func (sw *ShardWindow) Reset() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, tag := range sw.entries {
		sw.ix.Remove(sw.slots.at(tag).pt)
	}
	sw.dropResidentsLocked()
	sw.outliers = 0
}

// Stats returns this shard slice's counters. Flip totals summed across
// shards equal the single-process Window's flip totals on the same
// stream — a cheap cross-check the property tests assert.
func (sw *ShardWindow) Stats() Stats {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statsLocked()
}

// statsLocked is Stats without the sequence number, which belongs to
// whoever keeps the global window's discipline. Callers hold sw.mu.
func (sw *ShardWindow) statsLocked() Stats {
	return Stats{
		Len:       len(sw.entries),
		Ingested:  sw.ingested,
		Evicted:   sw.evicted,
		Outliers:  sw.outliers,
		FlipIn:    sw.flipIn,
		FlipOut:   sw.flipOut,
		Occupancy: sw.ix.ShardOccupancy(),
	}
}

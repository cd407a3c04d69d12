package stream

import (
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/index"
	"dod/internal/par"
)

// ProcessBatch ingests pts in order under one window lock acquisition and
// one arrival timestamp, returning index-aligned verdicts and per-item
// errors. It is semantically a loop of Process calls that all observe the
// same now: verdicts, sequence numbers, evictions and flips are
// bit-identical to processing the points one at a time at that instant, for
// any way of splitting a stream into batches. A failed item (dimension
// mismatch, duplicate ID) gets its error slot set and a zero Verdict; the
// remaining items still process — ingest is not fail-fast.
//
// errors[i] == nil iff pts[i] was admitted. A closed window fails every
// slot with errs.ErrClosed.
func (w *Window) ProcessBatch(pts []geom.Point, now time.Time) ([]Verdict, []error) {
	verdicts := make([]Verdict, len(pts))
	errors := make([]error, len(pts))
	if w.closed.Load() {
		for i := range errors {
			errors[i] = errs.ErrClosed
		}
		return verdicts, errors
	}
	w.sw.mu.Lock()
	defer w.sw.mu.Unlock()
	for i := range pts {
		verdicts[i], errors[i] = w.processLocked(pts[i], now)
	}
	return verdicts, errors
}

// ScoreBatch scores pts read-only against the current window contents,
// spread over up to workers goroutines (workers < 1 means GOMAXPROCS). Each
// worker owns an index.CountScratch, so the steady-state per-point query
// allocates nothing and concurrent scoring scales with index shards — the
// same lock-free property as ScorePoint. Results are index-aligned and
// identical to calling ScorePoint on each item; like ProcessBatch, errors
// are reported per slot rather than failing the batch.
//
// ScoreBatch takes no window lock, so a concurrent Process interleaves at
// cell granularity exactly as it would with concurrent ScorePoint calls.
func (w *Window) ScoreBatch(pts []geom.Point, workers int) ([]Score, []error) {
	scores := make([]Score, len(pts))
	errors := make([]error, len(pts))
	if w.closed.Load() {
		for i := range errors {
			errors[i] = errs.ErrClosed
		}
		return scores, errors
	}
	par.Do(len(pts), par.Workers(workers), func(tile, lo, hi int) {
		sc := index.NewCountScratch()
		for i := lo; i < hi; i++ {
			n, err := w.sw.ix.NeighborCountScratch(sc, pts[i], w.cfg.K)
			if err != nil {
				errors[i] = err
				continue
			}
			scores[i] = Score{ID: pts[i].ID, Neighbors: n, Outlier: n < w.cfg.K}
		}
	})
	return scores, errors
}

package dod

import (
	"errors"
	"runtime"
	"slices"

	"dod/internal/detect"
	"dod/internal/errs"
	"dod/internal/geom"
)

// Batch is a columnar set of points: all IDs in one slice, all coordinates
// in one flat row-major slice (point i's coordinates are
// Coords[i*Dim : (i+1)*Dim]). The layout is the same one the scan kernels
// operate on internally, so a Batch flows into DetectBatch with no
// per-point conversion or allocation — the natural shape for callers that
// already hold columnar data (Arrow/Parquet readers, NDJSON batch
// decoders, feature stores).
//
// A zero Batch is empty and ready to Append into.
type Batch struct {
	// Dim is the point dimensionality. Zero on an empty batch means
	// "unset"; the first Append fixes it.
	Dim int
	// IDs holds the caller-assigned unique point IDs.
	IDs []uint64
	// Coords holds all coordinates, row-major: len(Coords) == Dim*len(IDs).
	Coords []float64
}

// BatchOf converts row-oriented points into a columnar Batch, copying IDs
// and coordinates. All points must share one dimensionality; a mismatch is
// reported as a *DimMismatchError (matching ErrDimMismatch).
func BatchOf(points []Point) (*Batch, error) {
	b := &Batch{}
	if len(points) == 0 {
		return b, nil
	}
	dim := points[0].Dim()
	b.Dim = dim
	b.IDs = make([]uint64, 0, len(points))
	b.Coords = make([]float64, 0, len(points)*dim)
	for _, p := range points {
		if p.Dim() != dim {
			return nil, &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: dim}
		}
		b.IDs = append(b.IDs, p.ID)
		b.Coords = append(b.Coords, p.Coords...)
	}
	return b, nil
}

// Len returns the number of points in the batch.
func (b *Batch) Len() int { return len(b.IDs) }

// At returns point i as a row. The coordinate slice aliases the batch's
// backing array; callers must not mutate it.
func (b *Batch) At(i int) Point {
	return Point{ID: b.IDs[i], Coords: b.Coords[i*b.Dim : (i+1)*b.Dim]}
}

// Append adds one point. The first Append on an empty batch fixes Dim; any
// later dimensionality mismatch is a *DimMismatchError and leaves the
// batch unchanged.
func (b *Batch) Append(p Point) error {
	if len(b.IDs) == 0 && b.Dim == 0 {
		b.Dim = p.Dim()
	}
	if p.Dim() != b.Dim {
		return &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: b.Dim}
	}
	b.IDs = append(b.IDs, p.ID)
	b.Coords = append(b.Coords, p.Coords...)
	return nil
}

// validate checks the structural invariants DetectBatch relies on, in
// checkPoints' order: the dimensionality and the coordinate count first,
// then the smallest repeated ID.
func (b *Batch) validate() error {
	if b == nil || len(b.IDs) == 0 {
		return errs.ErrEmptyDataset
	}
	if b.Dim < 1 {
		return errs.BadParams("batch Dim must be >= 1, got %d", b.Dim)
	}
	if len(b.Coords) != b.Dim*len(b.IDs) {
		return errs.BadParams("batch has %d coords for %d points of dim %d (want %d)",
			len(b.Coords), len(b.IDs), b.Dim, b.Dim*len(b.IDs))
	}
	return checkRepeats(slices.Clone(b.IDs))
}

// DetectBatch is the columnar, parallel counterpart of DetectCentralized:
// it finds all distance-threshold outliers in b by spreading the chosen
// detector's scan kernel across up to GOMAXPROCS goroutines, reading the
// batch's columns in place with no row conversion. The returned IDs are
// sorted and bit-identical to DetectCentralized on the same points — the
// tiled kernels preserve each point's scan behavior exactly, so the two
// entry points are interchangeable wherever determinism matters.
//
// Validation matches DetectCentralized: an empty batch is ErrEmptyDataset,
// duplicate IDs are ErrDuplicateID, and bad parameters (r <= 0, k < 1, or
// a Coords slice whose length disagrees with Dim×Len) are ErrBadParams.
// A bad Dim or coordinate count is reported before a repeat, and the
// repeat reported is the smallest repeated ID.
func DetectBatch(b *Batch, detector Detector, r float64, k int) ([]uint64, error) {
	params, err := Config{R: r, K: k}.params()
	if err != nil {
		return nil, err
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	// The batch's columns are already the kernel layout; wrap, don't copy.
	set := &geom.PointSet{Dim: b.Dim, IDs: b.IDs, Coords: b.Coords}
	res := detect.DetectSetParallel(detect.New(detector, 1), set, set.Len(), params, runtime.GOMAXPROCS(0))
	ids := append([]uint64(nil), res.OutlierIDs...)
	sortIDs(ids)
	return ids, nil
}

// BatchResult carries the index-aligned outcome of a streaming batch call.
// Exactly one of Verdicts (ProcessBatch) or Scores (ScoreBatch) is
// populated; Errs always is.
//
// Batch calls are not fail-fast: a bad item — duplicate ID, wrong
// dimensionality, a closed detector — claims its own error slot and a zero
// value in the corresponding result slot, while every other item still
// processes. Errs[i] == nil if and only if item i succeeded and its
// Verdicts[i]/Scores[i] entry is meaningful. This keeps responses aligned
// with requests under partial failure, the same contract the NDJSON
// serving tiers expose per line.
type BatchResult struct {
	// Verdicts are the per-item ingest outcomes (ProcessBatch only).
	Verdicts []StreamVerdict
	// Scores are the per-item query outcomes (ScoreBatch only).
	Scores []StreamScore
	// Errs has one slot per input item; nil means that item succeeded.
	Errs []error
}

// Err joins the per-item errors into one error, nil if every item
// succeeded. The result is errors.Join-shaped: errors.Is and errors.As
// see through it to each item's error, so callers can write
// errors.Is(res.Err(), dod.ErrDuplicateID) without walking Errs.
func (r *BatchResult) Err() error { return errors.Join(r.Errs...) }

// Ok reports whether item i succeeded.
func (r *BatchResult) Ok(i int) bool { return r.Errs[i] == nil }

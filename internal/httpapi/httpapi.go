// Package httpapi holds the NDJSON batch plumbing shared by the serving
// tiers: the single-process server (internal/serve), its sharded variant,
// and the cluster router (internal/router). One request body is one batch —
// each non-empty line a point, each response line a verdict or score at the
// same index — and every tier classifies malformed input identically, so a
// client cannot tell from an error body which tier rejected it:
//
//	413 "body_too_large"   the body exceeded the byte cap (MaxBytesReader)
//	400 "batch_too_large"  the body exceeded the line cap (errs.ErrBatchTooLarge)
//	408 "read_timeout"     the client stalled the body read past the deadline
//	400 "bad_request"      anything else unreadable at request level
//
// Error bodies are structured JSON ({"error","message","request_id"}) and
// echo the caller's X-Dod-Request-Id so failures correlate across tiers.
package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dod/internal/errs"
	"dod/internal/geom"
)

// HeaderRequestID is the request correlation header. The router mints one
// per client request and derives per-line idempotency keys from it; every
// tier echoes it in error bodies.
const HeaderRequestID = "X-Dod-Request-Id"

// MaxLineBytes bounds one NDJSON line (high-dimensional points are long).
const MaxLineBytes = 1 << 20

// PointLine is the NDJSON wire form of a point.
type PointLine struct {
	ID     uint64    `json:"id"`
	Coords []float64 `json:"coords"`
}

// BatchItem is one parsed batch line: either a point or that line's parse
// error. Per-line failures keep their slot so responses stay index-aligned
// with the request body.
type BatchItem struct {
	Pt  geom.Point
	Err error
}

// ReadBatch parses up to maxBatch non-empty NDJSON point lines from the
// request body. A parse failure on a line is recorded as that item's Err;
// request-level failures — an over-limit batch (errs.ErrBatchTooLarge), an
// oversize body (*http.MaxBytesError via the wrapped scanner error), a
// stalled read — abort the whole request and classify in WriteBatchError.
func ReadBatch(r *http.Request, maxBatch int) ([]BatchItem, error) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	var items []BatchItem
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if len(items) >= maxBatch {
			return nil, &errs.BatchTooLargeError{Limit: maxBatch}
		}
		var pl PointLine
		if err := json.Unmarshal(line, &pl); err != nil {
			items = append(items, BatchItem{Err: fmt.Errorf("malformed point line: %v", err)})
			continue
		}
		items = append(items, BatchItem{Pt: geom.Point{ID: pl.ID, Coords: pl.Coords}})
	}
	if err := sc.Err(); err != nil {
		// %w: WriteBatchError classifies by unwrapping (*http.MaxBytesError
		// means 413, a context error means 408).
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return items, nil
}

// WriteBatchError classifies a ReadBatch failure into the structured HTTP
// error shape shared by every tier.
func WriteBatchError(w http.ResponseWriter, r *http.Request, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		WriteError(w, r, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	case errors.Is(err, errs.ErrBatchTooLarge):
		WriteError(w, r, http.StatusBadRequest, "batch_too_large", err.Error())
	case r.Context().Err() != nil:
		WriteError(w, r, http.StatusRequestTimeout, "read_timeout", "request body read timed out")
	default:
		WriteError(w, r, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// WriteError emits the serving tiers' machine-readable error shape,
// carrying the request's correlation ID when the caller sent one.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck
		Error     string `json:"error"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	}{Error: code, Message: msg, RequestID: r.Header.Get(HeaderRequestID)})
}

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

// WriteBatchError classifies a ReadBatchPooled failure into the structured HTTP
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

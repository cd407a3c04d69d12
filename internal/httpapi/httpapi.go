// Package httpapi is the NDJSON front end of both serving roles — the
// single-process server (internal/serve) and the sharded tier's router
// (internal/router) — plus the batch plumbing under it. One request body is
// one batch: each non-empty line a point, each response line a verdict or
// score at the same index. Front owns everything above the window (request
// IDs, caps, admission, batch read and write, score fan-out, metrics, the
// health endpoints); a Backend owns the window. Every role classifies
// malformed input identically, so a client cannot tell from an error body
// which role rejected it:
//
//	413 "body_too_large"   the body exceeded the byte cap (MaxBytesReader)
//	400 "batch_too_large"  the body exceeded the line cap (errs.ErrBatchTooLarge)
//	408 "read_timeout"     the client stalled the body read past the deadline
//	400 "bad_request"      anything else unreadable at request level
//	429 "overloaded"       every in-flight slot was taken
//	429 "rate_limited"     the tenant's token bucket was empty
//	429 "quota_exceeded"   the batch would overrun the tenant's line quota
//
// Error bodies are structured JSON ({"error","message","request_id"}) and
// echo the request's X-Dod-Request-Id so failures correlate across tiers.
package httpapi

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"

	"dod/internal/errs"
	"dod/internal/geom"
)

// HeaderRequestID is the request correlation header. The front mints one
// for every request that arrives without one and echoes it on the
// response; the router forwards it on every shard call it makes for the
// request, suffixed per sub-operation so each mutating call has its own
// idempotency key. One grep through router and shard logs stitches a
// cross-shard trace together.
const HeaderRequestID = "X-Dod-Request-Id"

// DefaultMaxBatch bounds the number of NDJSON lines per request.
const DefaultMaxBatch = 100_000

// DefaultMaxBodyBytes bounds one request body (64 MiB); larger uploads are
// rejected with a structured 413 instead of being buffered.
const DefaultMaxBodyBytes = 64 << 20

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
// carrying the request's correlation ID.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	WriteJSON(w, status, struct {
		Error     string `json:"error"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	}{Error: code, Message: msg, RequestID: r.Header.Get(HeaderRequestID)})
}

// WriteJSON writes v as one compact JSON line with the given status. A
// json.RawMessage is taken as already encoded and written as is.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if raw, ok := v.(json.RawMessage); ok {
		w.Write(raw) //nolint:errcheck // client gone mid-response is not actionable
		return
	}
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// EchoRequestID puts the request's correlation ID, if it carries one, on
// the response headers.
func EchoRequestID(w http.ResponseWriter, r *http.Request) {
	if id := r.Header[HeaderRequestID]; len(id) > 0 {
		w.Header()[HeaderRequestID] = id
	}
}

// mintRequestID installs a fresh 16-hex-char correlation ID on a request
// that carries none or an empty one: the router derives its shard calls'
// idempotency keys from the ID, so an empty one would make every such
// request replay the first one's shard answers. The IDs only need to be
// unique, not unpredictable.
func mintRequestID(r *http.Request) {
	if r.Header.Get(HeaderRequestID) != "" {
		return
	}
	var b [8]byte
	var id [16]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	hex.Encode(id[:], b[:])
	r.Header[HeaderRequestID] = []string{string(id[:])}
}

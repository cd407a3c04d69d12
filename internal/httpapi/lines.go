package httpapi

import (
	"net/http"
	"sync"

	"dod/internal/wirejson"
)

// VerdictLine answers one ingest line. Both serving tiers emit this exact
// shape — the sharded E2E contract is a byte-identical response stream, so
// the struct (and its wirejson fast encoder) lives in the shared package.
type VerdictLine struct {
	ID        uint64 `json:"id"`
	Seq       uint64 `json:"seq,omitempty"`
	Neighbors int    `json:"neighbors"`
	Outlier   bool   `json:"outlier"`
	Evicted   int    `json:"evicted,omitempty"`
	Error     string `json:"error,omitempty"`
}

// ScoreLine answers one score line.
type ScoreLine struct {
	ID        uint64 `json:"id"`
	Neighbors int    `json:"neighbors"`
	Outlier   bool   `json:"outlier"`
	Error     string `json:"error,omitempty"`
}

// respBufPool recycles whole-response encode buffers; one response is one
// buffered Write, so buffers grow to the largest batch seen and stick.
var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64*1024); return &b }}

// WriteVerdicts encodes verdict lines through the wirejson fast encoder
// into one pooled buffer and writes the response in a single call. The
// bytes are identical to streaming each line through a json.Encoder
// (FuzzWireJSON holds the encoder to that).
func WriteVerdicts(w http.ResponseWriter, lines []VerdictLine) {
	bp := respBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for i := range lines {
		l := &lines[i]
		buf = wirejson.AppendVerdict(buf, l.ID, l.Seq, l.Neighbors, l.Outlier, l.Evicted, l.Error)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf) //nolint:errcheck // client gone mid-response is not actionable
	*bp = buf
	respBufPool.Put(bp)
}

// WriteScores is WriteVerdicts for score lines.
func WriteScores(w http.ResponseWriter, lines []ScoreLine) {
	bp := respBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for i := range lines {
		l := &lines[i]
		buf = wirejson.AppendScore(buf, l.ID, l.Neighbors, l.Outlier, l.Error)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf) //nolint:errcheck
	*bp = buf
	respBufPool.Put(bp)
}

var verdictsPool = sync.Pool{New: func() any { s := make([]VerdictLine, 0, 1024); return &s }}
var scoresPool = sync.Pool{New: func() any { s := make([]ScoreLine, 0, 1024); return &s }}

// GetVerdicts returns a zeroed pooled slice of n verdict lines. Return it
// with PutVerdicts once the response is written.
func GetVerdicts(n int) []VerdictLine {
	sp := verdictsPool.Get().(*[]VerdictLine)
	s := *sp
	if cap(s) < n {
		s = make([]VerdictLine, n)
	} else {
		s = s[:n]
		clear(s)
	}
	return s
}

// PutVerdicts recycles a slice handed out by GetVerdicts.
func PutVerdicts(s []VerdictLine) {
	s = s[:0]
	verdictsPool.Put(&s)
}

// GetScores returns a zeroed pooled slice of n score lines.
func GetScores(n int) []ScoreLine {
	sp := scoresPool.Get().(*[]ScoreLine)
	s := *sp
	if cap(s) < n {
		s = make([]ScoreLine, n)
	} else {
		s = s[:n]
		clear(s)
	}
	return s
}

// PutScores recycles a slice handed out by GetScores.
func PutScores(s []ScoreLine) {
	s = s[:0]
	scoresPool.Put(&s)
}

package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/wirejson"
)

// Batch is one pooled parse of an NDJSON request body. Items' coords alias
// the batch's float arena, so the batch must stay alive (no Release) until
// the handler is done with every point; window code clones points before
// retaining them, which keeps that lifetime one request wide.
type Batch struct {
	Items []BatchItem

	arena []float64 // backing store for fast-path coords
	buf   []byte    // scanner's initial buffer
}

var batchPool = sync.Pool{
	New: func() any {
		return &Batch{
			Items: make([]BatchItem, 0, 1024),
			arena: make([]float64, 0, 8*1024),
			buf:   make([]byte, 64*1024),
		}
	},
}

// ReadBatchPooled parses up to maxBatch non-empty NDJSON point lines from
// the request body on the zero-allocation fast path: pooled scanner buffer,
// wirejson line parser with per-line fallback to the encoding/json oracle
// (identical accept/reject behavior and error text), and a pooled coords
// arena shared by the whole batch. A parse failure on a line is recorded as
// that item's Err; request-level failures — an over-limit batch
// (errs.ErrBatchTooLarge), an oversize body (*http.MaxBytesError via the
// wrapped scanner error), a stalled read — abort the whole request and
// classify in WriteBatchError. Callers must Release the batch after writing
// the response.
func ReadBatchPooled(r *http.Request, maxBatch int) (*Batch, error) {
	b := batchPool.Get().(*Batch)
	b.Items = b.Items[:0]
	b.arena = b.arena[:0]
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(b.buf, MaxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if len(b.Items) >= maxBatch {
			b.Release()
			return nil, &errs.BatchTooLargeError{Limit: maxBatch}
		}
		start := len(b.arena)
		if id, arena, ok := wirejson.ParsePoint(line, b.arena); ok {
			b.arena = arena
			coords := b.arena[start:len(b.arena):len(b.arena)]
			b.Items = append(b.Items, BatchItem{Pt: geom.Point{ID: id, Coords: coords}})
			continue
		}
		// Non-canonical line: the oracle decides, with its own error text.
		var pl PointLine
		if err := json.Unmarshal(line, &pl); err != nil {
			b.Items = append(b.Items, BatchItem{Err: fmt.Errorf("malformed point line: %v", err)})
			continue
		}
		b.Items = append(b.Items, BatchItem{Pt: geom.Point{ID: pl.ID, Coords: pl.Coords}})
	}
	if err := sc.Err(); err != nil {
		b.Release()
		// %w: WriteBatchError classifies by unwrapping (*http.MaxBytesError
		// means 413, a context error means 408).
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return b, nil
}

// Release returns the batch's buffers to the pool. Items and their coords
// are invalid afterwards.
func (b *Batch) Release() {
	clear(b.Items) // drop error references before pooling
	batchPool.Put(b)
}

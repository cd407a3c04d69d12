package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"dod/internal/errs"
	"dod/internal/geom"
)

// ndjsonBody renders n canonical point lines plus a few non-canonical ones
// the fast parser must hand to the oracle.
func ndjsonBody(n int, withOddities bool) []byte {
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"id":%d,"coords":[%g,%g,%g]}`+"\n", i+1, rng.Float64(), rng.Float64()*10, -rng.Float64())
	}
	if withOddities {
		b.WriteString("{\"coords\": [1, 2, 3], \"id\": 42000}\n") // reordered + spaces: oracle path
		b.WriteString("not json at all\n")                        // per-line error
		b.WriteString("\n")                                       // blank: skipped
	}
	return b.Bytes()
}

func bodyRequest(body []byte) *http.Request {
	return &http.Request{Body: io.NopCloser(bytes.NewReader(body))}
}

// readBatch is the plain reading of the NDJSON batch contract — bufio line
// scan, encoding/json on every line — that ReadBatchPooled must be
// indistinguishable from.
func readBatch(r *http.Request, maxBatch int) ([]BatchItem, error) {
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
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return items, nil
}

// TestReadBatchPooledParity pins the fast path to the plain reading's
// behavior: identical points, identical per-line error placement and text.
func TestReadBatchPooledParity(t *testing.T) {
	body := ndjsonBody(200, true)
	want, err := readBatch(bodyRequest(body), 1000)
	if err != nil {
		t.Fatalf("readBatch: %v", err)
	}
	got, err := ReadBatchPooled(bodyRequest(body), 1000)
	if err != nil {
		t.Fatalf("ReadBatchPooled: %v", err)
	}
	defer got.Release()
	if len(got.Items) != len(want) {
		t.Fatalf("item count %d != %d", len(got.Items), len(want))
	}
	for i := range want {
		w, g := want[i], got.Items[i]
		if (w.Err == nil) != (g.Err == nil) {
			t.Fatalf("line %d: err presence mismatch: %v vs %v", i, w.Err, g.Err)
		}
		if w.Err != nil {
			if w.Err.Error() != g.Err.Error() {
				t.Fatalf("line %d: error text %q != %q", i, g.Err.Error(), w.Err.Error())
			}
			continue
		}
		if w.Pt.ID != g.Pt.ID || len(w.Pt.Coords) != len(g.Pt.Coords) {
			t.Fatalf("line %d: point mismatch: %+v vs %+v", i, g.Pt, w.Pt)
		}
		for d := range w.Pt.Coords {
			if w.Pt.Coords[d] != g.Pt.Coords[d] {
				t.Fatalf("line %d coord %d: %v != %v", i, d, g.Pt.Coords[d], w.Pt.Coords[d])
			}
		}
	}
	// Batch cap classifies identically.
	if _, err := ReadBatchPooled(bodyRequest(body), 10); err == nil || !strings.Contains(err.Error(), "10") {
		t.Fatalf("expected batch-too-large error, got %v", err)
	}
}

// discardResponseWriter is the cheapest possible sink for encoder guards.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// TestIngestWirePathAllocs is the steady-state allocation guard for the
// serving hot path: parsing a canonical 1000-line batch and encoding its
// 1000 verdicts must cost (amortized) well under one allocation per line —
// the pools and the wirejson codec carry the whole exchange.
func TestIngestWirePathAllocs(t *testing.T) {
	const lines = 1000
	body := ndjsonBody(lines, false)

	// Warm the pools so the guard measures steady state, not first touch.
	for i := 0; i < 3; i++ {
		b, err := ReadBatchPooled(bodyRequest(body), lines+1)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	perCall := testing.AllocsPerRun(50, func() {
		b, err := ReadBatchPooled(bodyRequest(body), lines+1)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	// The request wrapper itself costs a couple of allocations
	// (NopCloser + Reader); the parse must add nothing per line.
	if perLine := perCall / lines; perLine > 0.05 {
		t.Errorf("ReadBatchPooled: %.1f allocs per %d-line call (%.4f/line), want ~0/line", perCall, lines, perLine)
	}

	verdicts := GetVerdicts(lines)
	for i := range verdicts {
		verdicts[i] = VerdictLine{ID: uint64(i + 1), Seq: uint64(i + 1), Neighbors: i % 7, Outlier: i%3 == 0}
	}
	w := &discardResponseWriter{h: make(http.Header)}
	WriteVerdicts(w, verdicts) // warm the response buffer pool
	perCall = testing.AllocsPerRun(50, func() { WriteVerdicts(w, verdicts) })
	if perLine := perCall / lines; perLine > 0.05 {
		t.Errorf("WriteVerdicts: %.1f allocs per %d-line call (%.4f/line), want ~0/line", perCall, lines, perLine)
	}
	PutVerdicts(verdicts)

	scores := GetScores(lines)
	for i := range scores {
		scores[i] = ScoreLine{ID: uint64(i + 1), Neighbors: i % 5, Outlier: i%2 == 0}
	}
	WriteScores(w, scores)
	perCall = testing.AllocsPerRun(50, func() { WriteScores(w, scores) })
	if perLine := perCall / lines; perLine > 0.05 {
		t.Errorf("WriteScores: %.1f allocs per %d-line call (%.4f/line), want ~0/line", perCall, lines, perLine)
	}
	PutScores(scores)
}

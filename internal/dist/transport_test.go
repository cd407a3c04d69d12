package dist_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/core"
	"dod/internal/dist"
)

// truncatingTransport cuts the body of the first `left` task responses to
// half its declared length and then fails the read with
// io.ErrUnexpectedEOF, as net/http does when a connection closes before
// Content-Length bytes arrived.
type truncatingTransport struct {
	inner http.RoundTripper
	left  atomic.Int64
	cut   atomic.Int64
}

func (tt *truncatingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := tt.inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength <= 0 || req.URL.Path != "/dist/v1/poll" {
		return resp, err
	}
	if tt.left.Add(-1) < 0 {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	tt.cut.Add(1)
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body[:len(body)/2]), errReader{io.ErrUnexpectedEOF}))
	return resp, nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestTruncatedTaskBodyRetried: a task response that breaks off below its
// declared length fails the worker's read with a transport error; the
// worker hands the dispatch back and polls again, and the job still
// equals the local engine.
func TestTruncatedTaskBodyRetried(t *testing.T) {
	input := testInput(t, 2000)
	local := runDetection(t, input, coreConfig())

	coord := newCoordinator(t, dist.Config{LeaseTTL: time.Second})
	tt := &truncatingTransport{inner: http.DefaultTransport}
	tt.left.Store(3)
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: coord.URL(),
		Name:        "w1",
		Parallelism: 2,
		Client:      &http.Client{Transport: tt},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }() //nolint:errcheck
	t.Cleanup(func() { cancel(); <-done })
	if err := coord.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	cfg := coreConfig()
	cfg.ExecutorFor = core.ClusterExecutorFor(coord)
	rep := runDetection(t, input, cfg)
	if !reflect.DeepEqual(local.Outliers, rep.Outliers) {
		t.Fatalf("run with truncated task bodies diverged from local: %d vs %d outliers", len(rep.Outliers), len(local.Outliers))
	}
	if got := tt.cut.Load(); got != 3 {
		t.Fatalf("truncated %d task bodies, want 3", got)
	}
	if st := coord.Stats(); st.Nacks < 3 {
		t.Errorf("nacks = %d, want one per truncated body (3): %+v", st.Nacks, st)
	}
}

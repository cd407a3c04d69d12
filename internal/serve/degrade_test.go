// Graceful-degradation tests: admission control (429 shedding), structured
// 413s, and /readyz draining.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dod/internal/httpapi"
	"dod/internal/stream"
)

func degradeConfig() stream.Config {
	return stream.Config{R: 1.2, K: 3, Dim: 2, Capacity: 1000}
}

type errorBody struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// waitInflight polls /readyz until it counts n admitted batch requests.
func waitInflight(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var rz struct {
			Inflight int `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rz.Inflight == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz counts %d in flight, want %d", rz.Inflight, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdSlot starts an ingest whose body stays open, so the request keeps its
// admission slot, and waits until it is the inflight-th admitted one. The
// returned func ends the body and waits for the response.
func holdSlot(t *testing.T, base string, inflight int) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(base+"/v1/ingest", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	waitInflight(t, base, inflight)
	return func() {
		pw.Close()
		<-done
	}
}

func decodeErrorBody(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error response is not the structured shape: %v", err)
	}
	return eb
}

// TestOverloadSheds429 pins the overload contract: when every admission
// slot is held, a new batch request is rejected immediately with 429 +
// Retry-After and the ErrOverloaded code — a fast explicit shed, never a
// queued request that times out. Releasing one slot restores service.
func TestOverloadSheds429(t *testing.T) {
	s, err := New(Config{Stream: degradeConfig(), FrontConfig: httpapi.FrontConfig{MaxInflight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy both slots with requests whose bodies have not ended.
	release1 := holdSlot(t, ts.URL, 1)
	release2 := holdSlot(t, ts.URL, 2)
	defer release2()

	for _, ep := range []string{"/v1/ingest", "/v1/score"} {
		start := time.Now()
		resp, err := http.Post(ts.URL+ep, "application/x-ndjson",
			bytes.NewBufferString(`{"id":1,"coords":[0,0]}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s under full admission: HTTP %d, want 429", ep, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("%s: 429 without Retry-After", ep)
		} else if _, err := strconv.Atoi(ra); err != nil {
			t.Errorf("%s: Retry-After %q not numeric", ep, ra)
		}
		if eb := decodeErrorBody(t, resp); eb.Error != "overloaded" {
			t.Errorf("%s: error code %q, want overloaded", ep, eb.Error)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: shed took %v; rejection must be fast, not a timeout", ep, took)
		}
	}

	// Capacity frees up: the very next request is served.
	release1()
	resp, err := http.Post(ts.URL+"/v1/score", "application/x-ndjson",
		bytes.NewBufferString(`{"id":1,"coords":[0,0]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestOverloadConcurrentBlast drives 2x capacity of real concurrent
// requests (the acceptance scenario): every response is either a served 200
// or an explicit 429 — nothing hangs, nothing times out.
func TestOverloadConcurrentBlast(t *testing.T) {
	s, err := New(Config{Stream: degradeConfig(), FrontConfig: httpapi.FrontConfig{MaxInflight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const requests = 16
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		byStatus   = map[int]int{}
		slowestOne time.Duration
	)
	body := func() *bytes.Buffer {
		var buf bytes.Buffer
		for i := 0; i < 2000; i++ {
			buf.WriteString(`{"id":` + strconv.Itoa(i) + `,"coords":[0.5,0.5]}` + "\n")
		}
		return &buf
	}
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", body())
			if err != nil {
				t.Errorf("blast request failed outright: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			mu.Lock()
			byStatus[resp.StatusCode]++
			if d := time.Since(start); d > slowestOne {
				slowestOne = d
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if byStatus[http.StatusOK]+byStatus[http.StatusTooManyRequests] != requests {
		t.Fatalf("unexpected statuses under overload: %v", byStatus)
	}
	if byStatus[http.StatusOK] == 0 {
		t.Error("overload shed everything; admitted requests should still be served")
	}
	t.Logf("blast: %v (slowest %v)", byStatus, slowestOne)
}

// TestOversizeBodyStructured413 sends a body past MaxBodyBytes and requires
// the structured 413 shape rather than a connection reset or a 500.
func TestOversizeBodyStructured413(t *testing.T) {
	s, err := New(Config{Stream: degradeConfig(), FrontConfig: httpapi.FrontConfig{MaxBodyBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	for i := 0; i < 64; i++ {
		buf.WriteString(`{"id":1,"coords":[0.123456789,0.987654321]}` + "\n")
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: HTTP %d, want 413", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Error != "body_too_large" {
		t.Errorf("413 error code %q, want body_too_large", eb.Error)
	}
}

// TestReadyzDrain pins the /healthz-vs-/readyz split: draining flips
// readiness to 503 (so balancers stop routing) while liveness and the data
// endpoints keep working until shutdown completes.
func TestReadyzDrain(t *testing.T) {
	s, err := New(Config{Stream: degradeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Fatalf("fresh server /readyz: HTTP %d", status)
	}

	s.SetDraining(true)
	status, body := get("/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: HTTP %d, want 503", status)
	}
	var rb struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatalf("draining /readyz body %q: %v", body, err)
	}
	if rb.Ready || !rb.Draining {
		t.Errorf("draining /readyz body = %+v", rb)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Errorf("draining must not fail liveness: /healthz HTTP %d", status)
	}
	resp, err := http.Post(ts.URL+"/v1/score", "application/x-ndjson",
		bytes.NewBufferString(`{"id":1,"coords":[0,0]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight traffic during drain: HTTP %d, want 200", resp.StatusCode)
	}

	s.SetDraining(false)
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Errorf("undrained /readyz: HTTP %d, want 200", status)
	}
}

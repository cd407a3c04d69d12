// White-box lease-protocol edge cases. These tests speak the raw worker
// wire protocol over real HTTP (join/poll/result as a remote worker binary
// would) but drive lease expiry by calling sweep with synthetic clocks, so
// every boundary is exact and deterministic — no sleeps racing timers.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"dod/internal/mapreduce"
)

// leaseTTL is deliberately enormous: the background sweeper (which uses the
// real clock) can then never expire anything mid-test, and each test expires
// leases itself via c.sweep(syntheticNow).
const leaseTTL = time.Hour

func newLeaseCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	cfg.LeaseTTL = leaseTTL
	cfg.PollWait = 50 * time.Millisecond
	cfg.RedispatchBackoff = time.Millisecond
	cfg.Logf = t.Logf
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// protoWorker is a hand-rolled worker speaking the wire protocol directly,
// so tests control exactly when it polls, answers, or goes silent.
type protoWorker struct {
	t    *testing.T
	base string
	name string
}

func (pw *protoWorker) post(path string, body []byte, ct string) (int, http.Header, []byte) {
	pw.t.Helper()
	resp, err := http.Post(pw.base+path, ct, bytes.NewReader(body))
	if err != nil {
		pw.t.Fatalf("worker %s: POST %s: %v", pw.name, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		pw.t.Fatalf("worker %s: POST %s: read body: %v", pw.name, path, err)
	}
	return resp.StatusCode, resp.Header, b
}

func (pw *protoWorker) join() {
	pw.t.Helper()
	req, _ := json.Marshal(joinRequest{Worker: pw.name, Capacity: 1})
	if status, _, _ := pw.post(pathJoin, req, "application/json"); status != http.StatusOK {
		pw.t.Fatalf("worker %s: join: HTTP %d", pw.name, status)
	}
}

// pollTask polls until a task arrives (retrying idle 204s briefly) and
// returns its decoded header.
func (pw *protoWorker) pollTask() taskHeader {
	pw.t.Helper()
	req, _ := json.Marshal(pollRequest{Worker: pw.name})
	for i := 0; i < 50; i++ {
		status, _, body := pw.post(pathPoll, req, "application/json")
		switch status {
		case http.StatusNoContent:
			continue
		case http.StatusOK:
			h, _, _, err := decodeTaskBody(body)
			if err != nil {
				pw.t.Fatalf("worker %s: poll: undecodable task: %v", pw.name, err)
			}
			return h
		default:
			pw.t.Fatalf("worker %s: poll: HTTP %d", pw.name, status)
		}
	}
	pw.t.Fatalf("worker %s: no task after 50 polls", pw.name)
	return taskHeader{}
}

// finishMap uploads a successful single-bucket map result for h whose bucket
// value marks which worker produced it; dur feeds the speculation median.
func (pw *protoWorker) finishMap(h taskHeader, dur time.Duration) int {
	pw.t.Helper()
	rh := resultHeader{
		Job: h.Job, Phase: h.Phase, Task: h.Task, Dispatch: h.Dispatch,
		Worker: pw.name, Metric: wireMetric{DurationNs: int64(dur)},
	}
	res := &mapreduce.MapResult{Buckets: bucketsOf([]mapreduce.Pair{{Key: 1, Value: []byte(pw.name)}})}
	body, err := encodeMapResultBody(rh, res)
	if err != nil {
		pw.t.Fatal(err)
	}
	status, _, _ := pw.post(pathResult, body, "application/octet-stream")
	return status
}

type mapOutcome struct {
	res *mapreduce.MapResult
	err error
}

// execMapAsync submits one single-reducer map task through the public
// executor and returns the channel its outcome will arrive on.
func execMapAsync(exec mapreduce.Executor, id int) <-chan mapOutcome {
	ch := make(chan mapOutcome, 1)
	go func() {
		res, err := exec.ExecMap(context.Background(), mapreduce.MapTask{
			TaskID: id, NumReducers: 1,
			Split: mapreduce.Split{Name: fmt.Sprintf("s%d", id), Data: []byte{byte(id)}},
		})
		ch <- mapOutcome{res, err}
	}()
	return ch
}

func lastSeenOf(t *testing.T, c *Coordinator, name string) time.Time {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[name]
	if ws == nil {
		t.Fatalf("worker %s not registered", name)
	}
	return ws.lastSeen
}

// TestLeaseBoundaryCompletion pins the exact expiry comparison: a worker
// whose silence equals LeaseTTL exactly is still leased (the bound is
// inclusive), its in-flight result is accepted normally, and when the lease
// later does expire, the already-settled task is not re-dispatched.
func TestLeaseBoundaryCompletion(t *testing.T) {
	c := newLeaseCoord(t, Config{SpeculativeFactor: -1})
	exec := c.Executor(JobSpec{Kind: "lease-test/v1"})
	ch := execMapAsync(exec, 0)

	w := &protoWorker{t: t, base: c.URL(), name: "bw1"}
	w.join()
	h := w.pollTask()
	t0 := lastSeenOf(t, c, w.name)

	c.sweep(t0.Add(leaseTTL)) // exactly at the boundary: not expired
	if st := c.Stats(); st.WorkersLost != 0 || st.Redispatches != 0 {
		t.Fatalf("lease expired exactly at TTL: %+v", st)
	}

	if status := w.finishMap(h, time.Millisecond); status != http.StatusOK {
		t.Fatalf("boundary completion rejected: HTTP %d", status)
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := string(out.res.Buckets[0].Value(0)); got != w.name {
		t.Fatalf("result attributed to %q, want %q", got, w.name)
	}

	// One tick past the boundary the lease is gone — but the settled task
	// must not come back. (The result upload refreshed the heartbeat, so
	// the boundary moves with it.)
	t1 := lastSeenOf(t, c, w.name)
	if !t1.After(t0) {
		t.Error("accepted result did not refresh the worker's lease")
	}
	c.sweep(t1.Add(leaseTTL + time.Nanosecond))
	st := c.Stats()
	if st.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", st.WorkersLost)
	}
	if st.Redispatches != 0 || st.TasksLate != 0 || st.TasksOK != 1 {
		t.Errorf("settled task disturbed by expiry: %+v", st)
	}
}

// TestDeadWorkerRePolls covers the rejoin-by-poll path: a worker declared
// lost keeps polling (it never knew it was dead). The poll must re-register
// it, hand it the re-dispatch of its own withdrawn task, and accept the
// fresh result — while the stale result from the withdrawn dispatch is
// discarded as late, not double-delivered.
func TestDeadWorkerRePolls(t *testing.T) {
	c := newLeaseCoord(t, Config{SpeculativeFactor: -1})
	exec := c.Executor(JobSpec{Kind: "lease-test/v1"})
	ch := execMapAsync(exec, 0)

	w := &protoWorker{t: t, base: c.URL(), name: "dw1"}
	w.join()
	h1 := w.pollTask()
	t0 := lastSeenOf(t, c, w.name)

	c.sweep(t0.Add(leaseTTL + time.Second))
	if st := c.Stats(); st.WorkersLost != 1 || st.Redispatches != 1 || st.Workers != 0 {
		t.Fatalf("expiry did not withdraw the task: %+v", st)
	}

	// The "dead" worker polls again — no explicit rejoin — and must receive
	// the same task under a fresh dispatch ID.
	h2 := w.pollTask()
	if h2.Task != h1.Task || h2.Phase != h1.Phase {
		t.Fatalf("re-poll got different task: %+v vs %+v", h2, h1)
	}
	if h2.Dispatch == h1.Dispatch {
		t.Fatal("re-dispatch reused the withdrawn dispatch ID")
	}
	if c.Workers() != 1 {
		t.Fatalf("re-polling worker not re-registered: %d workers", c.Workers())
	}

	if status := w.finishMap(h2, time.Millisecond); status != http.StatusOK {
		t.Fatalf("fresh result rejected: HTTP %d", status)
	}
	if out := <-ch; out.err != nil {
		t.Fatal(out.err)
	}

	// The zombie result from the withdrawn dispatch arrives after the task
	// settled: discarded as late, never a second outcome.
	if status := w.finishMap(h1, time.Millisecond); status != http.StatusOK {
		t.Fatalf("late result not absorbed: HTTP %d", status)
	}
	st := c.Stats()
	if st.TasksOK != 1 || st.TasksLate != 1 {
		t.Errorf("late duplicate mishandled: %+v", st)
	}
}

// TestSpeculativeDuplicateFinishesSecond runs a real speculation race to
// its unhappy end: the original dispatch wins, and the speculative
// duplicate's later result must be discarded without disturbing the
// delivered outcome.
func TestSpeculativeDuplicateFinishesSecond(t *testing.T) {
	c := newLeaseCoord(t, Config{
		SpeculativeFactor:  1,
		SpeculativeMinDone: 1,
		SpeculativeMinAge:  time.Nanosecond,
	})
	exec := c.Executor(JobSpec{Kind: "lease-test/v1"})

	w1 := &protoWorker{t: t, base: c.URL(), name: "sw1"}
	w1.join()

	// Task 0 completes quickly, seeding the phase's duration median.
	ch0 := execMapAsync(exec, 0)
	h0 := w1.pollTask()
	if status := w1.finishMap(h0, time.Millisecond); status != http.StatusOK {
		t.Fatalf("seed task rejected: HTTP %d", status)
	}
	if out := <-ch0; out.err != nil {
		t.Fatal(out.err)
	}

	// Task 1 hangs on w1 long past the median: the sweep speculates exactly
	// one duplicate, which w2 picks up.
	ch1 := execMapAsync(exec, 1)
	h1 := w1.pollTask()
	c.sweep(time.Now().Add(time.Minute))
	if st := c.Stats(); st.Speculative != 1 {
		t.Fatalf("Speculative = %d, want 1: %+v", st.Speculative, st)
	}

	w2 := &protoWorker{t: t, base: c.URL(), name: "sw2"}
	w2.join()
	h1dup := w2.pollTask()
	if h1dup.Task != h1.Task || h1dup.Dispatch == h1.Dispatch {
		t.Fatalf("duplicate dispatch malformed: %+v vs %+v", h1dup, h1)
	}

	// Original finishes first and wins; the duplicate finishes second.
	if status := w1.finishMap(h1, 2*time.Millisecond); status != http.StatusOK {
		t.Fatalf("winning result rejected: HTTP %d", status)
	}
	out := <-ch1
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := string(out.res.Buckets[0].Value(0)); got != w1.name {
		t.Fatalf("delivered result from %q, want original worker %q", got, w1.name)
	}

	if status := w2.finishMap(h1dup, 2*time.Millisecond); status != http.StatusOK {
		t.Fatalf("losing duplicate not absorbed: HTTP %d", status)
	}
	st := c.Stats()
	if st.TasksLate != 1 {
		t.Errorf("TasksLate = %d, want 1 (the losing duplicate)", st.TasksLate)
	}
	if st.TasksOK != 2 {
		t.Errorf("TasksOK = %d, want 2", st.TasksOK)
	}
}

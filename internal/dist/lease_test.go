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
// real clock) can then never expire a lease or, with no median of a few
// seconds or more, a deadline mid-test, and each test expires them itself
// via c.sweep(syntheticNow).
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
// value marks which worker produced it; dur feeds the deadline's median.
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

// heartbeat sends one idle poll, renewing the worker's lease; the queue
// must be empty.
func (pw *protoWorker) heartbeat() {
	pw.t.Helper()
	req, _ := json.Marshal(pollRequest{Worker: pw.name})
	if status, _, _ := pw.post(pathPoll, req, "application/json"); status != http.StatusNoContent {
		pw.t.Fatalf("worker %s: idle poll: HTTP %d", pw.name, status)
	}
}

// dispatchStart reads when the dispatch h describes was handed out.
func dispatchStart(t *testing.T, c *Coordinator, h taskHeader) time.Time {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	di, ok := c.jobs[h.Job].tasks[taskKey{h.Phase, h.Task}].running[h.Dispatch]
	if !ok {
		t.Fatalf("dispatch %d is not live", h.Dispatch)
	}
	return di.start
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
	c := newLeaseCoord(t, Config{})
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
	c := newLeaseCoord(t, Config{})
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

// TestDeadlineBase pins the deadline's rule: the lease until three of the
// phase's tasks have finished, then 4 × their median, floored at 200ms,
// doubled for each earlier dispatch of the task.
func TestDeadlineBase(t *testing.T) {
	c, err := newCoordinator(Config{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	for _, tc := range []struct {
		done []time.Duration
		n    int
		want time.Duration
	}{
		{nil, 1, time.Minute},
		{[]time.Duration{ms, ms}, 1, time.Minute},
		{[]time.Duration{ms, ms}, 3, 4 * time.Minute},
		{[]time.Duration{ms, 2 * ms, ms}, 1, 200 * ms},
		{[]time.Duration{time.Second, 9 * time.Second, time.Second}, 1, 4 * time.Second},
		{[]time.Duration{time.Second, time.Second, time.Second}, 8, 128 * 4 * time.Second},
	} {
		tk := &task{phase: "map", job: &jobRun{durations: map[string][]time.Duration{"map": tc.done}}}
		if got := c.deadline(tk, tc.n); got != tc.want {
			t.Errorf("finished %v, dispatch %d: deadline %v, want %v", tc.done, tc.n, got, tc.want)
		}
	}
}

// TestDeadlineWithoutMedian covers a phase with fewer than three finished
// tasks, where the deadline is the lease: a dispatch whose worker keeps
// polling is withdrawn one tick past LeaseTTL, not at it, and its task is
// re-queued at once to the same worker, whose lease survives.
func TestDeadlineWithoutMedian(t *testing.T) {
	c := newLeaseCoord(t, Config{})
	ch := execMapAsync(c.Executor(JobSpec{Kind: "lease-test/v1"}), 0)
	w := &protoWorker{t: t, base: c.URL(), name: "nw1"}
	w.join()
	h1 := w.pollTask()
	start := dispatchStart(t, c, h1)
	w.heartbeat()

	c.sweep(start.Add(leaseTTL))
	if st := c.Stats(); st.Deadlines != 0 {
		t.Fatalf("dispatch withdrawn at its deadline, not past it: %+v", st)
	}
	c.sweep(start.Add(leaseTTL + time.Nanosecond))
	if st := c.Stats(); st.Deadlines != 1 || st.Redispatches != 1 || st.WorkersLost != 0 {
		t.Fatalf("deadline did not withdraw the dispatch alone: %+v", st)
	}
	h2 := w.pollTask()
	if h2.Task != h1.Task || h2.Dispatch == h1.Dispatch {
		t.Fatalf("re-dispatch malformed: %+v vs %+v", h2, h1)
	}
	if status := w.finishMap(h2, time.Millisecond); status != http.StatusOK {
		t.Fatalf("re-dispatch's result rejected: HTTP %d", status)
	}
	if out := <-ch; out.err != nil {
		t.Fatal(out.err)
	}
}

// TestDeadlineWithMedian covers a phase with a median: after three tasks
// finish in 1s each, a straggler's deadline is 4s, and its re-dispatch's
// is 8s.
func TestDeadlineWithMedian(t *testing.T) {
	c := newLeaseCoord(t, Config{})
	exec := c.Executor(JobSpec{Kind: "lease-test/v1"})
	w := &protoWorker{t: t, base: c.URL(), name: "mw1"}
	w.join()
	for id := 0; id < 3; id++ {
		ch := execMapAsync(exec, id)
		if status := w.finishMap(w.pollTask(), time.Second); status != http.StatusOK {
			t.Fatalf("task %d rejected: HTTP %d", id, status)
		}
		if out := <-ch; out.err != nil {
			t.Fatal(out.err)
		}
	}

	ch := execMapAsync(exec, 3)
	h := w.pollTask()
	for i, base := range []time.Duration{4 * time.Second, 8 * time.Second} {
		start := dispatchStart(t, c, h)
		c.sweep(start.Add(base))
		if st := c.Stats(); st.Deadlines != int64(i) {
			t.Fatalf("dispatch %d withdrawn at its %v deadline, not past it: %+v", i+1, base, st)
		}
		c.sweep(start.Add(base + time.Nanosecond))
		if st := c.Stats(); st.Deadlines != int64(i+1) {
			t.Fatalf("dispatch %d not withdrawn past its %v deadline: %+v", i+1, base, st)
		}
		h = w.pollTask()
	}
	if status := w.finishMap(h, time.Second); status != http.StatusOK {
		t.Fatalf("third dispatch's result rejected: HTTP %d", status)
	}
	if out := <-ch; out.err != nil {
		t.Fatal(out.err)
	}
}

// TestWithdrawnDispatchWins: a dispatch withdrawn past its deadline still
// settles its task if its result arrives first, and the re-dispatch's
// later result is discarded as late.
func TestWithdrawnDispatchWins(t *testing.T) {
	c := newLeaseCoord(t, Config{})
	ch := execMapAsync(c.Executor(JobSpec{Kind: "lease-test/v1"}), 0)
	w1 := &protoWorker{t: t, base: c.URL(), name: "ww1"}
	w1.join()
	h1 := w1.pollTask()
	start := dispatchStart(t, c, h1)
	w1.heartbeat()
	c.sweep(start.Add(leaseTTL + time.Nanosecond))

	w2 := &protoWorker{t: t, base: c.URL(), name: "ww2"}
	w2.join()
	h2 := w2.pollTask()
	if h2.Task != h1.Task || h2.Dispatch == h1.Dispatch {
		t.Fatalf("re-dispatch malformed: %+v vs %+v", h2, h1)
	}
	if status := w1.finishMap(h1, time.Millisecond); status != http.StatusOK {
		t.Fatalf("withdrawn dispatch's result rejected: HTTP %d", status)
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := string(out.res.Buckets[0].Value(0)); got != w1.name {
		t.Fatalf("delivered result from %q, want the withdrawn dispatch's worker %q", got, w1.name)
	}
	if status := w2.finishMap(h2, time.Millisecond); status != http.StatusOK {
		t.Fatalf("losing re-dispatch not absorbed: HTTP %d", status)
	}
	if st := c.Stats(); st.TasksOK != 1 || st.TasksLate != 1 || st.Deadlines != 1 {
		t.Errorf("TasksOK %d, TasksLate %d, Deadlines %d; want 1, 1, 1", st.TasksOK, st.TasksLate, st.Deadlines)
	}
}

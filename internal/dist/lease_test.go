// White-box lease-protocol edge cases. These tests speak the raw worker
// wire protocol (join/poll/result/nack as a remote worker binary would)
// straight into the coordinator's handlers through httptest, with no
// listener and no sweeper: each test moves the coordinator's clock and
// calls sweep itself, so every boundary is exact and nothing sleeps.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dod/internal/mapreduce"
	"dod/internal/retry"
)

// leaseTTL is the lease every rig runs: the default.
const leaseTTL = defaultLease

// leaseRig is a coordinator on a clock its test moves, with one job to
// submit map tasks to.
type leaseRig struct {
	t     *testing.T
	c     *Coordinator
	clock time.Time
	job   *jobRun
	gone  context.Context // a cancelled context: idle polls return at once
}

func newLeaseRig(t *testing.T) *leaseRig {
	t.Helper()
	c, err := newCoordinator(Config{LeaseTTL: leaseTTL, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	r := &leaseRig{t: t, c: c, clock: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC), gone: gone}
	c.now = func() time.Time { return r.clock }
	r.job = c.Executor(JobSpec{Kind: "lease-test/v1"}).(*remoteExecutor).job
	return r
}

// at moves the clock to now and sweeps.
func (r *leaseRig) at(now time.Time) {
	r.clock = now
	r.c.sweep(now)
}

// tick moves the clock by dt and sweeps.
func (r *leaseRig) tick(dt time.Duration) { r.at(r.clock.Add(dt)) }

// submit enqueues one single-reducer map task, as the executor does.
func (r *leaseRig) submit(id int) *task {
	r.t.Helper()
	tk := &task{
		job: r.job, phase: "map", id: id,
		mapTask: &mapreduce.MapTask{
			TaskID: id, NumReducers: 1,
			Split: mapreduce.Split{Name: fmt.Sprintf("s%d", id), Data: []byte{byte(id)}},
		},
		running: make(map[uint64]dispatchInfo),
		outcome: make(chan taskOutcome, 1),
	}
	if err := r.c.enqueue(tk); err != nil {
		r.t.Fatal(err)
	}
	return tk
}

// result returns the outcome tk settled with; it must have settled.
func (r *leaseRig) result(tk *task) *mapreduce.MapResult {
	r.t.Helper()
	select {
	case out := <-tk.outcome:
		if out.err != nil {
			r.t.Fatal(out.err)
		}
		return out.mapRes
	default:
		r.t.Fatalf("map task %d has not settled", tk.id)
		return nil
	}
}

func (r *leaseRig) call(handler http.HandlerFunc, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	handler(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(r.gone))
	return rec
}

// protoWorker is a hand-rolled worker speaking the wire protocol directly,
// so tests control exactly when it polls, answers, or goes silent.
type protoWorker struct {
	r    *leaseRig
	name string
}

func (r *leaseRig) worker(name string) *protoWorker {
	r.t.Helper()
	pw := &protoWorker{r: r, name: name}
	req, _ := json.Marshal(joinRequest{Worker: name, Capacity: 1})
	if rec := r.call(r.c.handleJoin, pathJoin, req); rec.Code != http.StatusOK {
		r.t.Fatalf("worker %s: join: HTTP %d", name, rec.Code)
	}
	return pw
}

// poll sends one poll and returns the task it got, if any.
func (pw *protoWorker) poll() (taskHeader, bool) {
	pw.r.t.Helper()
	req, _ := json.Marshal(pollRequest{Worker: pw.name})
	rec := pw.r.call(pw.r.c.handlePoll, pathPoll, req)
	if rec.Header().Get(headerDispatch) == "" {
		return taskHeader{}, false
	}
	h, _, _, err := decodeTaskBody(rec.Body.Bytes())
	if err != nil {
		pw.r.t.Fatalf("worker %s: poll: undecodable task: %v", pw.name, err)
	}
	return h, true
}

// pollTask sends one poll, which must return a task.
func (pw *protoWorker) pollTask() taskHeader {
	pw.r.t.Helper()
	h, ok := pw.poll()
	if !ok {
		pw.r.t.Fatalf("worker %s: no task at %v", pw.name, pw.r.clock)
	}
	return h
}

// heartbeat sends one poll, renewing the worker's lease; the queue must be
// empty.
func (pw *protoWorker) heartbeat() {
	pw.r.t.Helper()
	if h, ok := pw.poll(); ok {
		pw.r.t.Fatalf("worker %s: idle poll got %s task %d", pw.name, h.Phase, h.Task)
	}
}

// finishMap uploads a successful single-bucket map result for h whose bucket
// value marks which worker produced it; dur feeds the deadline's median.
func (pw *protoWorker) finishMap(h taskHeader, dur time.Duration) {
	pw.r.t.Helper()
	rh := resultHeader{
		Job: h.Job, Phase: h.Phase, Task: h.Task, Dispatch: h.Dispatch,
		Worker: pw.name, Metric: wireMetric{DurationNs: int64(dur)},
	}
	res := &mapreduce.MapResult{Buckets: bucketsOf([]mapreduce.Pair{{Key: 1, Value: []byte(pw.name)}})}
	body, err := encodeMapResultBody(rh, res)
	if err != nil {
		pw.r.t.Fatal(err)
	}
	if rec := pw.r.call(pw.r.c.handleResult, pathResult, body); rec.Code != http.StatusOK {
		pw.r.t.Fatalf("worker %s: result of dispatch %d: HTTP %d", pw.name, h.Dispatch, rec.Code)
	}
}

func (pw *protoWorker) nack(h taskHeader) {
	pw.r.t.Helper()
	req, _ := json.Marshal(nackRequest{Worker: pw.name, Dispatch: h.Dispatch, Reason: "corrupt payload"})
	if rec := pw.r.call(pw.r.c.handleNack, pathNack, req); rec.Code != http.StatusOK {
		pw.r.t.Fatalf("worker %s: nack: HTTP %d", pw.name, rec.Code)
	}
}

// producer names the worker whose result settled a task.
func producer(res *mapreduce.MapResult) string { return string(res.Buckets[0].Value(0)) }

// dispatchStart reads when the dispatch h describes was handed out.
func (r *leaseRig) dispatchStart(h taskHeader) time.Time {
	r.t.Helper()
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	di, ok := r.job.tasks[taskKey{h.Phase, h.Task}].running[h.Dispatch]
	if !ok {
		r.t.Fatalf("dispatch %d is not live", h.Dispatch)
	}
	return di.start
}

func (r *leaseRig) lastSeen(name string) time.Time {
	r.t.Helper()
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	ws := r.c.workers[name]
	if ws == nil {
		r.t.Fatalf("worker %s not registered", name)
	}
	return ws.lastSeen
}

// TestLeaseBoundaryCompletion pins the exact expiry comparison: a worker
// whose silence equals LeaseTTL exactly is still leased (the bound is
// inclusive), its in-flight result is accepted normally, and when the lease
// later does expire, the already-settled task is not re-dispatched.
func TestLeaseBoundaryCompletion(t *testing.T) {
	r := newLeaseRig(t)
	tk := r.submit(0)
	w := r.worker("bw1")
	h := w.pollTask()
	t0 := r.lastSeen(w.name)

	r.tick(leaseTTL) // exactly at the boundary: not expired
	if st := r.c.Stats(); st.WorkersLost != 0 || st.Redispatches != 0 {
		t.Fatalf("lease expired exactly at TTL: %+v", st)
	}

	w.finishMap(h, time.Millisecond)
	if got := producer(r.result(tk)); got != w.name {
		t.Fatalf("result attributed to %q, want %q", got, w.name)
	}

	// One tick past the boundary the lease is gone — but the settled task
	// must not come back. (The result upload refreshed the heartbeat, so
	// the boundary moves with it.)
	t1 := r.lastSeen(w.name)
	if !t1.After(t0) {
		t.Error("accepted result did not refresh the worker's lease")
	}
	r.at(t1.Add(leaseTTL + time.Nanosecond))
	st := r.c.Stats()
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
	r := newLeaseRig(t)
	tk := r.submit(0)
	w := r.worker("dw1")
	h1 := w.pollTask()

	r.tick(leaseTTL + time.Second)
	if st := r.c.Stats(); st.WorkersLost != 1 || st.Redispatches != 1 || st.Workers != 0 {
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
	if r.c.Workers() != 1 {
		t.Fatalf("re-polling worker not re-registered: %d workers", r.c.Workers())
	}

	w.finishMap(h2, time.Millisecond)
	r.result(tk)

	// The zombie result from the withdrawn dispatch arrives after the task
	// settled: discarded as late, never a second outcome.
	w.finishMap(h1, time.Millisecond)
	if st := r.c.Stats(); st.TasksOK != 1 || st.TasksLate != 1 {
		t.Errorf("late duplicate mishandled: %+v", st)
	}
}

// TestRequeueAtOnce: whichever signal withdraws a dispatch — lease expiry,
// a nack or a passed deadline — its task goes to the next poll at the same
// instant, here another worker's.
func TestRequeueAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		withdraw func(r *leaseRig, a *protoWorker, h taskHeader)
		want     Stats
	}{
		{"lease expiry", func(r *leaseRig, a *protoWorker, h taskHeader) {
			r.tick(leaseTTL/2 + time.Nanosecond)
		}, Stats{WorkersLost: 1}},
		{"nack", func(r *leaseRig, a *protoWorker, h taskHeader) {
			a.nack(h)
		}, Stats{Nacks: 1}},
		{"deadline", func(r *leaseRig, a *protoWorker, h taskHeader) {
			a.heartbeat()
			r.tick(leaseTTL/2 + time.Nanosecond)
		}, Stats{Deadlines: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newLeaseRig(t)
			tk := r.submit(0)
			a, b := r.worker("a"), r.worker("b")
			h1 := a.pollTask()
			r.tick(leaseTTL / 2)
			b.heartbeat()

			tc.withdraw(r, a, h1)
			st := r.c.Stats()
			if st.Redispatches != 1 || st.WorkersLost != tc.want.WorkersLost || st.Nacks != tc.want.Nacks || st.Deadlines != tc.want.Deadlines {
				t.Fatalf("withdrawal by %s: %+v", tc.name, st)
			}
			h2, ok := b.poll()
			if !ok {
				t.Fatalf("after %s the task was not on the queue at %v", tc.name, r.clock)
			}
			if h2.Task != h1.Task || h2.Dispatch == h1.Dispatch {
				t.Fatalf("re-dispatch malformed: %+v vs %+v", h2, h1)
			}
			b.finishMap(h2, time.Millisecond)
			if got := producer(r.result(tk)); got != b.name {
				t.Fatalf("result from %q, want %q", got, b.name)
			}
		})
	}
}

// TestTimingFromLease pins every timing a deployment does not set: the
// coordinator holds an idle poll for a tenth of the lease; a worker reads
// the lease at join and backs off from a hundredth of it up to a fifth,
// and sends a result six times.
func TestTimingFromLease(t *testing.T) {
	ms := time.Millisecond
	var w *Worker
	var tr *handlerTransport
	for _, tc := range []struct {
		lease, hold time.Duration
		backoff     retry.Policy
	}{
		{0, time.Second, retry.Policy{Base: 100 * ms, Max: 2 * time.Second, Jitter: true}},
		{time.Second, 100 * ms, retry.Policy{Base: 10 * ms, Max: 200 * ms, Jitter: true}},
		{10 * ms, ms, retry.Policy{Base: 100 * time.Microsecond, Max: 2 * ms, Jitter: true}},
	} {
		c, err := newCoordinator(Config{LeaseTTL: tc.lease})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.pollHold(); got != tc.hold {
			t.Errorf("lease %v: poll held %v, want %v", tc.lease, got, tc.hold)
		}
		tr = &handlerTransport{c: c}
		w, err = NewWorker(WorkerConfig{Coordinator: "coordinator", Name: "w", Client: &http.Client{Transport: tr}})
		if err != nil {
			t.Fatal(err)
		}
		if w.backoff != leaseBackoff(defaultLease) {
			t.Errorf("backoff before join %+v, want the default lease's", w.backoff)
		}
		if err := w.join(context.Background()); err != nil {
			t.Fatal(err)
		}
		if w.backoff != tc.backoff {
			t.Errorf("lease %v: worker backs off %+v, want %+v", tc.lease, w.backoff, tc.backoff)
		}
	}
	// The last row's lease keeps the backoffs between the sends to a few
	// milliseconds.
	w.sendResult(context.Background(), taskHeader{Phase: "map"}, []byte("refused"), w.rngFor("result"))
	if tr.results != 6 {
		t.Errorf("a refused result was sent %d times, want 6", tr.results)
	}
}

// handlerTransport serves a worker's join from a coordinator's handler,
// with no socket, and refuses every result.
type handlerTransport struct {
	c       *Coordinator
	results int
}

func (ht *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	defer req.Body.Close()
	rec := httptest.NewRecorder()
	switch req.URL.Path {
	case pathJoin:
		ht.c.handleJoin(rec, req)
	case pathResult:
		ht.results++
		rec.WriteHeader(http.StatusServiceUnavailable)
	default:
		rec.WriteHeader(http.StatusNotFound)
	}
	return rec.Result(), nil
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
	r := newLeaseRig(t)
	tk := r.submit(0)
	w := r.worker("nw1")
	h1 := w.pollTask()
	start := r.dispatchStart(h1)
	r.tick(leaseTTL / 2)
	w.heartbeat()

	r.at(start.Add(leaseTTL))
	if st := r.c.Stats(); st.Deadlines != 0 {
		t.Fatalf("dispatch withdrawn at its deadline, not past it: %+v", st)
	}
	r.at(start.Add(leaseTTL + time.Nanosecond))
	if st := r.c.Stats(); st.Deadlines != 1 || st.Redispatches != 1 || st.WorkersLost != 0 {
		t.Fatalf("deadline did not withdraw the dispatch alone: %+v", st)
	}
	h2 := w.pollTask()
	if h2.Task != h1.Task || h2.Dispatch == h1.Dispatch {
		t.Fatalf("re-dispatch malformed: %+v vs %+v", h2, h1)
	}
	w.finishMap(h2, time.Millisecond)
	r.result(tk)
}

// TestDeadlineWithMedian covers a phase with a median: after three tasks
// finish in 1s each, a straggler's deadline is 4s, and its re-dispatch's
// is 8s.
func TestDeadlineWithMedian(t *testing.T) {
	r := newLeaseRig(t)
	w := r.worker("mw1")
	for id := 0; id < 3; id++ {
		tk := r.submit(id)
		w.finishMap(w.pollTask(), time.Second)
		r.result(tk)
	}

	tk := r.submit(3)
	h := w.pollTask()
	for i, base := range []time.Duration{4 * time.Second, 8 * time.Second} {
		start := r.dispatchStart(h)
		r.at(start.Add(base))
		if st := r.c.Stats(); st.Deadlines != int64(i) {
			t.Fatalf("dispatch %d withdrawn at its %v deadline, not past it: %+v", i+1, base, st)
		}
		r.at(start.Add(base + time.Nanosecond))
		if st := r.c.Stats(); st.Deadlines != int64(i+1) {
			t.Fatalf("dispatch %d not withdrawn past its %v deadline: %+v", i+1, base, st)
		}
		h = w.pollTask()
	}
	w.finishMap(h, time.Second)
	r.result(tk)
}

// TestWithdrawnDispatchWins: a dispatch withdrawn past its deadline still
// settles its task if its result arrives first, and the re-dispatch's
// later result is discarded as late.
func TestWithdrawnDispatchWins(t *testing.T) {
	r := newLeaseRig(t)
	tk := r.submit(0)
	w1 := r.worker("ww1")
	h1 := w1.pollTask()
	r.tick(leaseTTL / 2)
	w1.heartbeat()
	r.tick(leaseTTL/2 + time.Nanosecond)

	w2 := r.worker("ww2")
	h2 := w2.pollTask()
	if h2.Task != h1.Task || h2.Dispatch == h1.Dispatch {
		t.Fatalf("re-dispatch malformed: %+v vs %+v", h2, h1)
	}
	w1.finishMap(h1, time.Millisecond)
	if got := producer(r.result(tk)); got != w1.name {
		t.Fatalf("delivered result from %q, want the withdrawn dispatch's worker %q", got, w1.name)
	}
	w2.finishMap(h2, time.Millisecond)
	if st := r.c.Stats(); st.TasksOK != 1 || st.TasksLate != 1 || st.Deadlines != 1 {
		t.Errorf("TasksOK %d, TasksLate %d, Deadlines %d; want 1, 1, 1", st.TasksOK, st.TasksLate, st.Deadlines)
	}
}

package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dod/internal/errs"
	"dod/internal/mapreduce"
	"dod/internal/obs"
	"dod/internal/retry"
)

// Config tunes a Coordinator. The zero value is usable: it listens on a
// loopback ephemeral port with a 10s lease.
type Config struct {
	// Listen is the address to bind ("host:port"); default "127.0.0.1:0".
	Listen string

	// LeaseTTL is how long a worker may go without polling before it is
	// declared lost and its running tasks are re-dispatched. It is the one
	// timeout a deployment sets: an idle poll is held for LeaseTTL/10, a
	// dispatch's first deadline is LeaseTTL, and workers, which read it at
	// join, back off from LeaseTTL/100 up to LeaseTTL/5. Default 10s.
	LeaseTTL time.Duration

	// MaxTaskDispatches bounds how many times one task may be handed out
	// (the first dispatch plus every re-dispatch after a lost lease, a
	// nack or a passed deadline) before the task fails with ErrWorkerLost.
	// Default 8.
	MaxTaskDispatches int

	// JournalPath, when set, enables checkpoint/resume: every accepted
	// task result is fsynced to this append-only log before delivery, and
	// a restarted coordinator replays journaled results at enqueue time
	// instead of re-running their tasks. See journal.go.
	JournalPath string

	// MaxResultBytes caps one result POST body; larger uploads fail with
	// a structured 413. Default 2 GiB.
	MaxResultBytes int64

	// Obs receives the coordinator's dod_dist_* instruments, also served
	// on GET /metrics. Default: a private registry.
	Obs *obs.Registry

	// Logf, when set, receives scheduling events (worker joins and losses,
	// nacks, passed deadlines).
	Logf func(format string, args ...any)
}

// defaultLease is Config.LeaseTTL's default, and the lease a worker times
// its join retries by before it has read the coordinator's.
const defaultLease = 10 * time.Second

func (c Config) withDefaults() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = defaultLease
	}
	if c.MaxTaskDispatches <= 0 {
		c.MaxTaskDispatches = 8
	}
	if c.MaxResultBytes <= 0 {
		c.MaxResultBytes = 2 << 30
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// taskKey identifies a task within its job.
type taskKey struct {
	phase string
	id    int
}

// dispatchInfo records one outstanding hand-out of a task to a worker.
type dispatchInfo struct {
	worker string
	start  time.Time
	n      int // the task's dispatch count, this one included
}

// taskOutcome is what a waiting executor call receives.
type taskOutcome struct {
	mapRes    *mapreduce.MapResult
	reduceRes *mapreduce.ReduceResult
	err       error
}

// task is one map or reduce task the MapReduce driver asked for once; the
// coordinator may dispatch it several times (lease expiry, nacks, passed
// deadlines) until one result is accepted. All fields after construction
// are guarded by the coordinator mutex.
type task struct {
	job   *jobRun
	phase string
	id    int

	mapTask    *mapreduce.MapTask
	reduceTask *mapreduce.ReduceTask

	dispatches int
	queued     bool
	done       bool
	running    map[uint64]dispatchInfo // dispatch id -> outstanding hand-out

	outcome chan taskOutcome // buffered 1; receives exactly one value
}

// jobRun is the coordinator-side state of one executor's job. The executor
// holds the pointer for its lifetime; the coordinator's jobs map only
// tracks jobs with undone tasks (for result routing).
type jobRun struct {
	id        uint64
	spec      JobSpec
	specKey   uint64 // journal identity: stable across coordinator restarts
	tasks     map[taskKey]*task
	durations map[string][]time.Duration // completed-task durations per phase, for the deadline
}

// workerState is the lease record of one registered worker.
type workerState struct {
	name     string
	lastSeen time.Time
	running  map[uint64]*task // dispatch id -> task
}

// Coordinator is the cluster control plane: it owns the task queue,
// worker leases, dispatch deadlines and re-execution, and serves the
// worker protocol plus /metrics and /healthz over HTTP.
type Coordinator struct {
	cfg     Config
	met     *coordMetrics
	ln      net.Listener
	srv     *http.Server
	journal *journal // nil unless Config.JournalPath is set
	now     func() time.Time

	mu          sync.Mutex
	closed      bool
	workers     map[string]*workerState
	jobs        map[uint64]*jobRun
	queue       []*task
	notify      chan struct{} // closed and replaced whenever the queue changes
	jobSeq      uint64
	dispatchSeq uint64

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator starts a coordinator listening per cfg. Close releases it.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	c, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", c.cfg.Listen)
	if err != nil {
		c.journal.Close() //nolint:errcheck // the listen error is the one to report
		return nil, fmt.Errorf("dist: listen %s: %w", c.cfg.Listen, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathJoin, c.handleJoin)
	mux.HandleFunc("POST "+pathPoll, c.handlePoll)
	mux.HandleFunc("POST "+pathResult, c.handleResult)
	mux.HandleFunc("POST "+pathNack, c.handleNack)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET "+pathReady, c.handleReady)
	c.ln = ln
	c.srv = &http.Server{
		Handler: mux,
		// Header-read and idle timeouts bound slow-loris and dead-keepalive
		// connections; no global write timeout (long polls are held open).
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	c.sweepStop = make(chan struct{})
	c.sweepDone = make(chan struct{})
	go c.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	go c.sweeper()
	return c, nil
}

// newCoordinator builds a coordinator's state without a listener or a
// sweeper: NewCoordinator adds both, and the schedule harness calls the
// handlers and sweep itself, on a clock of its own.
func newCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		now:     time.Now,
		workers: make(map[string]*workerState),
		jobs:    make(map[uint64]*jobRun),
		notify:  make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		j, recovered, err := openJournal(cfg.JournalPath, c.logf)
		if err != nil {
			return nil, err
		}
		c.journal = j
		if recovered > 0 {
			c.logf("dist: journal %s: recovered %d settled results", cfg.JournalPath, recovered)
		}
	}
	c.met = newCoordMetrics(cfg.Obs, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	retry.Instrument(cfg.Obs)
	return c, nil
}

// URL returns the coordinator's base URL, e.g. "http://127.0.0.1:41327".
func (c *Coordinator) URL() string { return "http://" + c.ln.Addr().String() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Workers returns the number of workers currently holding a live lease.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WaitForWorkers blocks until at least n workers hold live leases or ctx
// expires.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if c.Workers() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dist: waiting for %d workers (have %d): %w", n, c.Workers(), ctx.Err())
		case <-t.C:
		}
	}
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	workers := len(c.workers)
	c.mu.Unlock()
	m := c.met
	perPhase := func(cm map[string]*obs.Counter) int64 {
		return cm["map"].Value() + cm["reduce"].Value()
	}
	return Stats{
		Workers:        workers,
		Heartbeats:     m.heartbeats.Value(),
		Dispatches:     perPhase(m.dispatches),
		TasksOK:        perPhase(m.tasksOK),
		TasksErr:       perPhase(m.tasksErr),
		TasksLate:      perPhase(m.tasksLate),
		BytesShipped:   m.bytesShipped.Value(),
		BytesCollected: m.bytesBack.Value(),
		WorkersLost:    m.workersLost.Value(),
		Redispatches:   m.redispatch.Value(),
		Deadlines:      m.deadlines.Value(),
		Nacks:          m.nacks.Value(),
		JournalReplays: m.journalReplays.Value(),
	}
}

// Close shuts the coordinator down: every undone task fails with
// ErrJobAborted, waiting pollers are released, and the listener closes.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, j := range c.jobs {
		for key, tk := range j.tasks {
			if !tk.done {
				tk.done = true
				delete(j.tasks, key)
				tk.outcome <- taskOutcome{err: fmt.Errorf("dist: coordinator closed: %w", errs.ErrJobAborted)}
			}
		}
	}
	c.kickLocked()
	c.mu.Unlock()
	close(c.sweepStop)
	err := c.srv.Close()
	<-c.sweepDone
	if jerr := c.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// Executor returns a mapreduce.Executor that ships this job's tasks
// to the coordinator's workers. spec must name a job kind registered in the
// worker binaries.
func (c *Coordinator) Executor(spec JobSpec) mapreduce.Executor {
	c.mu.Lock()
	c.jobSeq++
	id := c.jobSeq
	c.mu.Unlock()
	return &remoteExecutor{c: c, job: &jobRun{
		id:        id,
		spec:      spec,
		specKey:   specKey(spec),
		tasks:     make(map[taskKey]*task),
		durations: make(map[string][]time.Duration),
	}}
}

// remoteExecutor adapts the coordinator to mapreduce's Executor seam: each
// ExecMap/ExecReduce call enqueues one task and blocks until a worker's
// result is accepted (or the task fails / ctx is cancelled). Re-dispatch
// after a lost lease, a nack or a passed deadline happens inside the
// coordinator, so this is the only task recovery a job has; only failures
// the cluster cannot recover from surface here, and they fail the job.
type remoteExecutor struct {
	c   *Coordinator
	job *jobRun
}

func (e *remoteExecutor) ExecMap(ctx context.Context, t mapreduce.MapTask) (*mapreduce.MapResult, error) {
	tk := &task{
		job: e.job, phase: "map", id: t.TaskID,
		mapTask: &t,
		running: make(map[uint64]dispatchInfo),
		outcome: make(chan taskOutcome, 1),
	}
	return awaitTask(ctx, e.c, tk, func(out taskOutcome) *mapreduce.MapResult { return out.mapRes })
}

func (e *remoteExecutor) ExecReduce(ctx context.Context, t mapreduce.ReduceTask) (*mapreduce.ReduceResult, error) {
	tk := &task{
		job: e.job, phase: "reduce", id: t.TaskID,
		reduceTask: &t,
		running:    make(map[uint64]dispatchInfo),
		outcome:    make(chan taskOutcome, 1),
	}
	return awaitTask(ctx, e.c, tk, func(out taskOutcome) *mapreduce.ReduceResult { return out.reduceRes })
}

// awaitTask enqueues tk and blocks for its outcome or ctx cancellation.
func awaitTask[R any](ctx context.Context, c *Coordinator, tk *task, pick func(taskOutcome) *R) (*R, error) {
	if err := c.enqueue(tk); err != nil {
		return nil, err
	}
	select {
	case out := <-tk.outcome:
		if out.err != nil {
			return nil, out.err
		}
		return pick(out), nil
	case <-ctx.Done():
		c.abandon(tk)
		return nil, ctx.Err()
	}
}

// enqueue registers tk with its job and makes it dispatchable — unless the
// journal already holds this task's settled result from a previous run of
// the same spec, in which case the outcome is replayed from disk and no
// worker ever sees the task.
func (c *Coordinator) enqueue(tk *task) error {
	if body, ok := c.journal.lookup(journalKey{spec: tk.job.specKey, phase: tk.phase, task: tk.id}); ok {
		if h, buckets, output, err := decodeResultBody(body); err == nil && h.Err == "" {
			if out := buildOutcome(tk, h, buckets, output); out.err == nil {
				c.met.journalReplays.Inc()
				tk.done = true
				tk.outcome <- out
				return nil
			}
		}
		// A journal entry that fails to decode or validate (e.g. the spec
		// hash collided across incompatible shapes) is ignored; the task
		// runs normally and the fresh result overwrites nothing.
		c.logf("dist: journal entry for %s task %d unusable, re-running", tk.phase, tk.id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("dist: coordinator closed: %w", errs.ErrJobAborted)
	}
	if c.jobs[tk.job.id] == nil {
		c.jobs[tk.job.id] = tk.job
	}
	tk.job.tasks[taskKey{tk.phase, tk.id}] = tk
	tk.queued = true
	c.queue = append(c.queue, tk)
	c.kickLocked()
	return nil
}

// buildOutcome validates a decoded result body against tk's expected shape
// and assembles the executor-facing outcome. Shared by the live result
// path and journal replay, so a replayed task is byte-identical to a
// freshly computed one.
func buildOutcome(tk *task, h resultHeader, buckets []mapreduce.Bucket, output []mapreduce.Pair) taskOutcome {
	metric := metricFromWire(h.Metric)
	spans := spansFromWire(h.Spans)
	var out taskOutcome
	switch {
	case tk.mapTask != nil:
		if len(buckets) != tk.mapTask.NumReducers {
			out.err = fmt.Errorf("dist: map task %d result has %d buckets, want %d: %w", h.Task, len(buckets), tk.mapTask.NumReducers, errs.ErrWireFormat)
		} else {
			out.mapRes = &mapreduce.MapResult{Buckets: buckets, Metric: metric, Spans: spans}
		}
	default:
		out.reduceRes = &mapreduce.ReduceResult{Output: output, Metric: metric, Spans: spans}
	}
	return out
}

// abandon withdraws a task whose executor call was cancelled. In-flight
// dispatches are left to finish; their results arrive late and are
// discarded.
func (c *Coordinator) abandon(tk *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !tk.done {
		c.finishLocked(tk, taskOutcome{err: context.Canceled}, false)
	}
}

// finishLocked settles a task exactly once: withdraws its live dispatches
// from their workers, removes it from its job, deregisters the job when it
// has no undone tasks left, and (if deliver) hands the outcome to the
// waiting executor call.
func (c *Coordinator) finishLocked(tk *task, out taskOutcome, deliver bool) {
	tk.done = true
	for did, di := range tk.running {
		if ws := c.workers[di.worker]; ws != nil {
			delete(ws.running, did)
		}
	}
	key := taskKey{tk.phase, tk.id}
	if tk.job.tasks[key] == tk {
		delete(tk.job.tasks, key)
	}
	if len(tk.job.tasks) == 0 {
		// Drop the routing entry; the executor still holds the jobRun and
		// re-registers it (same pointer, durations intact) on next enqueue.
		delete(c.jobs, tk.job.id)
	}
	if deliver {
		tk.outcome <- out
	}
}

// kickLocked wakes every poller waiting for queue changes.
func (c *Coordinator) kickLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// ensureWorkerLocked registers a worker on first contact (join is an
// explicit handshake, but any authenticated poll also establishes a lease,
// which makes worker restarts under the same name seamless).
func (c *Coordinator) ensureWorkerLocked(name string) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{name: name, running: make(map[uint64]*task)}
		c.workers[name] = ws
		c.logf("dist: worker %s joined (%d workers)", name, len(c.workers))
	}
	ws.lastSeen = c.now()
	return ws
}

// tryDispatchLocked pops the first queued task for worker ws, returning it
// plus the header describing this dispatch. Done tasks are dropped from the
// queue lazily.
func (c *Coordinator) tryDispatchLocked(ws *workerState) (*task, taskHeader) {
	for len(c.queue) > 0 {
		tk := c.queue[0]
		c.queue = append(c.queue[:0], c.queue[1:]...)
		if tk.done || !tk.queued {
			continue
		}
		tk.queued = false
		c.dispatchSeq++
		did := c.dispatchSeq
		tk.dispatches++
		tk.running[did] = dispatchInfo{worker: ws.name, start: c.now(), n: tk.dispatches}
		ws.running[did] = tk
		h := taskHeader{
			Job: tk.job.id, Phase: tk.phase, Task: tk.id, Dispatch: did, Spec: tk.job.spec,
		}
		if tk.mapTask != nil {
			h.NumReducers = tk.mapTask.NumReducers
			h.SplitName = tk.mapTask.Split.Name
		}
		return tk, h
	}
	return nil, taskHeader{}
}

// encodeTask serializes a dispatch. Called outside the coordinator lock:
// task payloads are immutable after construction.
func encodeTask(tk *task, h taskHeader) ([]byte, error) {
	if tk.mapTask != nil {
		return encodeMapTaskBody(h, tk.mapTask.Split)
	}
	return encodeReduceTaskBody(h, tk.reduceTask.Groups)
}

// ---- HTTP handlers ----

// maxControlBody caps the small JSON control messages (join, poll, nack);
// anything larger is garbage or abuse.
const maxControlBody = 1 << 16

// writeStructuredError answers with a machine-readable error body, so
// clients distinguish "you sent too much" (413) from "I couldn't read in
// time" (408) from plain bad requests without parsing prose.
func writeStructuredError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck
		Error   string `json:"error"`
		Message string `json:"message"`
	}{Error: code, Message: msg})
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		http.Error(w, "dist: bad join request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.ensureWorkerLocked(req.Worker)
	}
	c.mu.Unlock()
	if closed {
		http.Error(w, "dist: coordinator closed", http.StatusGone)
		return
	}
	c.met.joins.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(joinResponse{LeaseMs: c.cfg.LeaseTTL.Milliseconds()}) //nolint:errcheck
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
	var req pollRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		http.Error(w, "dist: bad poll request", http.StatusBadRequest)
		return
	}
	c.met.heartbeats.Inc()
	deadline := c.now().Add(c.pollHold())
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			http.Error(w, "dist: coordinator closed", http.StatusGone)
			return
		}
		ws := c.ensureWorkerLocked(req.Worker)
		tk, h := c.tryDispatchLocked(ws)
		wait := c.notify
		c.mu.Unlock()

		if tk != nil {
			body, err := encodeTask(tk, h)
			if err != nil {
				// Serialization never fails for well-formed tasks; treat as
				// a fatal job error rather than retrying a poisoned task.
				c.mu.Lock()
				if !tk.done {
					c.finishLocked(tk, taskOutcome{err: err}, true)
				}
				c.mu.Unlock()
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			c.met.phaseCounterDispatch(tk.phase).Inc()
			c.met.bytesShipped.Add(int64(len(body)))
			w.Header().Set("Content-Type", "application/octet-stream")
			// A declared length lets the worker read the body into one
			// buffer, where a chunked body would grow it as bytes arrive.
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			// The dispatch ID rides in a header so a worker that cannot
			// decode the (possibly corrupted) body can still nack it.
			w.Header().Set(headerDispatch, fmt.Sprintf("%d", h.Dispatch))
			w.Write(body) //nolint:errcheck // worker re-polls; lease recovers the task
			return
		}
		remain := deadline.Sub(c.now())
		if remain <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(remain)
		select {
		case <-wait:
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
		t.Stop()
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxResultBytes)
	body, err := readBody(r.Body, r.ContentLength, c.cfg.MaxResultBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeStructuredError(w, http.StatusRequestEntityTooLarge, "result_too_large",
				fmt.Sprintf("dist: result body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeStructuredError(w, http.StatusBadRequest, "read_failed", "dist: reading result: "+err.Error())
		return
	}
	h, buckets, output, err := decodeResultBody(body)
	if err != nil {
		// Corrupted in transit (the integrity frame makes this certain,
		// never a silent wrong result). 400 is retryable on the worker
		// side: a re-send of the intact body will decode.
		writeStructuredError(w, http.StatusBadRequest, "undecodable_result", err.Error())
		return
	}
	c.met.bytesBack.Add(int64(len(body)))

	now := c.now()
	c.mu.Lock()
	if ws := c.workers[h.Worker]; ws != nil {
		ws.lastSeen = now
		delete(ws.running, h.Dispatch)
	}
	var tk *task
	if j := c.jobs[h.Job]; j != nil {
		tk = j.tasks[taskKey{h.Phase, h.Task}]
	}
	if tk == nil || tk.done {
		// A result for a task that was already settled (a withdrawn
		// dispatch's re-run won, the caller cancelled, ...).
		c.mu.Unlock()
		phaseCounter(c.met.tasksLate, h.Phase).Inc()
		w.WriteHeader(http.StatusOK)
		return
	}
	delete(tk.running, h.Dispatch)

	if h.Err != "" {
		// The task's user code failed on the worker. Task execution is
		// deterministic, so re-dispatching elsewhere cannot help; surface
		// it to the MapReduce driver, whose retry policy decides.
		// Counted before delivery, so Stats read once the driver has the
		// outcome includes it.
		phaseCounter(c.met.tasksErr, h.Phase).Inc()
		c.finishLocked(tk, taskOutcome{err: fmt.Errorf("dist: %s task %d on worker %s: %s", h.Phase, h.Task, h.Worker, h.Err)}, true)
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
		return
	}

	metric := metricFromWire(h.Metric)
	out := buildOutcome(tk, h, buckets, output)
	if out.err == nil {
		tk.job.durations[tk.phase] = append(tk.job.durations[tk.phase], metric.Duration)
		// Write-ahead: the journal must hold the result before the driver
		// can observe it, or a crash between delivery and append would
		// re-run a task the driver already consumed.
		if err := c.journal.append(journalKey{spec: tk.job.specKey, phase: tk.phase, task: tk.id}, body); err != nil {
			c.logf("dist: journal append for %s task %d failed: %v", tk.phase, tk.id, err)
		} else if c.journal != nil {
			c.met.journalRecords.Inc()
		}
	}
	if out.err == nil {
		phaseCounter(c.met.tasksOK, h.Phase).Inc()
		c.met.taskSeconds[normPhase(h.Phase)].Observe(metric.Duration.Seconds())
	} else {
		phaseCounter(c.met.tasksErr, h.Phase).Inc()
	}
	c.finishLocked(tk, out, true)
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// handleNack processes a worker's report that a dispatched task payload
// arrived undecodable (corrupted in transit). The dispatch is withdrawn
// and the task re-queued at once — without the nack, the worker would keep
// heartbeating and the dispatch would sit until its deadline.
func (c *Coordinator) handleNack(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
	var req nackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" || req.Dispatch == 0 {
		writeStructuredError(w, http.StatusBadRequest, "bad_nack", "dist: bad nack request")
		return
	}
	c.met.nacks.Inc()
	c.mu.Lock()
	var tk *task
	if ws := c.workers[req.Worker]; ws != nil {
		ws.lastSeen = c.now()
		tk = ws.running[req.Dispatch]
		delete(ws.running, req.Dispatch)
	}
	if tk != nil {
		c.logf("dist: dispatch %d (%s task %d) nacked by %s: %s", req.Dispatch, tk.phase, tk.id, req.Worker, req.Reason)
		c.withdrawLocked(tk, req.Dispatch)
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// handleReady serves GET /readyz: distinct from /healthz (liveness — the
// process is up), readiness means the coordinator can actually take work:
// not closed, and at least one worker holds a live lease.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	workers := len(c.workers)
	ready := !c.closed && workers > 0
	var reason string
	switch {
	case c.closed:
		reason = "closed"
	case workers == 0:
		reason = "0/1 workers"
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct { //nolint:errcheck
		Ready   bool   `json:"ready"`
		Workers int    `json:"workers"`
		Reason  string `json:"reason,omitempty"`
	}{Ready: ready, Workers: workers, Reason: reason})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	c.cfg.Obs.WritePrometheus(w) //nolint:errcheck
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	resp := struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Queued  int    `json:"queued"`
		Jobs    int    `json:"jobs"`
	}{Status: "ok", Workers: len(c.workers), Queued: len(c.queue), Jobs: len(c.jobs)}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// pollHold is how long an idle poll is held open before it returns 204.
// Polls double as heartbeats, so it is a tenth of the lease.
func (c *Coordinator) pollHold() time.Duration { return c.cfg.LeaseTTL / 10 }

// ---- lease sweeper and dispatch deadlines ----

func (c *Coordinator) sweeper() {
	defer close(c.sweepDone)
	interval := min(c.cfg.LeaseTTL/4, 250*time.Millisecond)
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			c.sweep(c.now())
		}
	}
}

// sweep withdraws every dispatch whose worker's lease has expired, or that
// has run past its deadline while its worker kept polling, and re-queues
// its task.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for name, ws := range c.workers {
		if now.Sub(ws.lastSeen) > c.cfg.LeaseTTL {
			delete(c.workers, name)
			c.met.workersLost.Inc()
			c.logf("dist: worker %s lost (no heartbeat for %v), re-dispatching %d tasks", name, now.Sub(ws.lastSeen).Round(time.Millisecond), len(ws.running))
			for did, tk := range ws.running {
				c.withdrawLocked(tk, did)
			}
			continue
		}
		for did, tk := range ws.running {
			di := tk.running[did]
			if limit := c.deadline(tk, di.n); now.Sub(di.start) > limit {
				delete(ws.running, did)
				c.met.deadlines.Inc()
				c.logf("dist: dispatch %d (%s task %d on %s) ran past its %v deadline, re-queueing", did, tk.phase, tk.id, name, limit)
				c.withdrawLocked(tk, did)
			}
		}
	}
}

// deadline is how long the n-th dispatch of tk may run. Its base is the
// lease until three of the phase's tasks have finished, then 4 × their
// median time, floored at 200ms so sub-millisecond medians leave healthy
// tasks alone. The base doubles for each earlier dispatch of the task, so
// with the default budget of 8 a task that is only slow fails only past
// 255 bases. (The doubling stops at 2^20, far beyond any budget's reach,
// so the shift cannot overflow.)
func (c *Coordinator) deadline(tk *task, n int) time.Duration {
	base := c.cfg.LeaseTTL
	if durs := tk.job.durations[tk.phase]; len(durs) >= 3 {
		base = max(200*time.Millisecond, 4*medianDuration(durs))
	}
	return base << min(uint(n-1), 20)
}

// withdrawLocked takes dispatch did of tk back, whether its worker's lease
// expired, it was nacked or it ran past its deadline. Unless tk is settled,
// is already queued or has another live dispatch, it goes back on the
// queue at once, or fails with ErrWorkerLost once it has used its dispatch
// budget. A withdrawn dispatch's result still settles the task if it
// arrives first.
func (c *Coordinator) withdrawLocked(tk *task, did uint64) {
	delete(tk.running, did)
	if tk.done || tk.queued || len(tk.running) > 0 {
		return
	}
	if tk.dispatches >= c.cfg.MaxTaskDispatches {
		c.finishLocked(tk, taskOutcome{err: fmt.Errorf("dist: %s task %d: %w after %d dispatches", tk.phase, tk.id, errs.ErrWorkerLost, tk.dispatches)}, true)
		return
	}
	c.met.redispatch.Inc()
	tk.queued = true
	c.queue = append(c.queue, tk)
	c.kickLocked()
}

func medianDuration(durs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func normPhase(phase string) string {
	if phase == "reduce" {
		return "reduce"
	}
	return "map"
}

// phaseCounterDispatch is a tiny helper keeping handlePoll readable.
func (m *coordMetrics) phaseCounterDispatch(phase string) *obs.Counter {
	return phaseCounter(m.dispatches, phase)
}

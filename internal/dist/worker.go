package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"dod/internal/mapreduce"
	"dod/internal/obs"
	"dod/internal/retry"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port" or
	// just "host:port"). Required.
	Coordinator string

	// Name identifies the worker to the coordinator; it must be unique in
	// the cluster. Default "<hostname>-<pid>".
	Name string

	// Parallelism is how many tasks the worker executes concurrently
	// (each slot is an independent poll loop). Default GOMAXPROCS.
	Parallelism int

	// Client issues the worker's HTTP requests. Default: a client with no
	// global timeout (polls are long; each request carries the run ctx).
	// The chaos harness swaps in a client whose transport injects faults.
	Client *http.Client

	// Logf, when set, receives worker lifecycle and task events.
	Logf func(format string, args ...any)

	// OnTask, when set, is called as each task payload arrives, before
	// execution — a test seam: chaos tests use it to kill the worker (via
	// context cancellation) at the worst possible moment.
	OnTask func(phase string, taskID int)
}

// Worker executes task attempts for a coordinator: it long-polls for task
// payloads, runs them through the same in-process executor the local
// engine uses (so results are byte-identical), and streams results back.
// Task spans are recorded on a fresh per-task trace and shipped home in
// the result header.
//
// Transport robustness: the worker's timing comes from the lease the
// coordinator announces at join. Failed posts back off on a retry.Policy
// from a hundredth of the lease up to a fifth of it, with full jitter
// (join retries, made before the lease is known, assume the default 10s).
// An undecodable task payload (corrupted in transit) is nacked back to the
// coordinator by dispatch ID so it re-queues immediately. A result is sent
// up to resultAttempts times — safe because the coordinator treats results
// as idempotent and discards duplicates.
type Worker struct {
	cfg     WorkerConfig
	base    string
	backoff retry.Policy // set by join, before any poll loop starts

	mu   sync.Mutex
	jobs map[string]builtJob // spec kind+config -> built job (or its build error)
}

type builtJob struct {
	job *Job
	err error
}

// NewWorker builds a Worker; call Run to start serving.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator address")
	}
	base := cfg.Coordinator
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	return &Worker{cfg: cfg, base: base, backoff: leaseBackoff(defaultLease), jobs: make(map[string]builtJob)}, nil
}

// resultAttempts bounds how many times one task result is (re)sent before
// the worker leaves the task to the coordinator, which re-queues it once
// the dispatch passes its deadline. The five backoffs between the sends sum
// to under a third of the lease.
const resultAttempts = 6

// leaseBackoff is a worker's retry policy under a coordinator's lease.
func leaseBackoff(lease time.Duration) retry.Policy {
	return retry.Policy{Base: lease / 100, Max: lease / 5, Jitter: true}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// rngFor derives a seeded jitter source per retry loop, so a worker's
// backoff schedule is reproducible under a fixed name (the chaos harness
// names workers deterministically).
func (w *Worker) rngFor(scope string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s", w.cfg.Name, scope)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Run joins the coordinator and serves tasks until ctx is cancelled or the
// coordinator shuts down (both are graceful exits returning nil). The
// initial join retries until the coordinator is reachable, so workers may
// start before their coordinator.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := w.join(ctx); err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	w.logf("dist: worker %s joined %s (%d slots)", w.cfg.Name, w.base, w.cfg.Parallelism)
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Parallelism; i++ {
		wg.Add(1)
		slot := i
		go func() {
			defer wg.Done()
			w.pollLoop(ctx, cancel, slot)
		}()
	}
	wg.Wait()
	return nil
}

// join performs the handshake, retrying transport errors until ctx ends,
// and adopts the backoff of the lease the coordinator announces.
func (w *Worker) join(ctx context.Context) error {
	req, err := json.Marshal(joinRequest{Worker: w.cfg.Name, Capacity: w.cfg.Parallelism, Kinds: RegisteredKinds()})
	if err != nil {
		return err
	}
	rng := w.rngFor("join")
	for attempt := 1; ; attempt++ {
		body, status, _, err := w.post(ctx, pathJoin, req, "application/json")
		switch {
		case err == nil && status == http.StatusOK:
			var resp joinResponse
			if uerr := json.Unmarshal(body, &resp); uerr != nil {
				// A 200 whose body doesn't parse was corrupted in transit;
				// treat like any transport failure and retry.
				err = fmt.Errorf("dist: join response: %w", uerr)
				break
			}
			if resp.LeaseMs > 0 {
				w.backoff = leaseBackoff(time.Duration(resp.LeaseMs) * time.Millisecond)
			}
			return nil
		case err == nil && status == http.StatusGone:
			return fmt.Errorf("dist: coordinator %s is closed", w.base)
		case ctx.Err() != nil:
			return ctx.Err()
		}
		if err != nil {
			w.logf("dist: worker %s: join %s: %v (retrying)", w.cfg.Name, w.base, err)
		} else {
			w.logf("dist: worker %s: join %s: HTTP %d (retrying)", w.cfg.Name, w.base, status)
		}
		if err := retry.Sleep(ctx, w.backoff.Delay(attempt, rng)); err != nil {
			return err
		}
	}
}

// pollLoop is one task slot: poll, execute, report, repeat. Transport
// errors back off on the worker's policy; the attempt counter resets on
// any successful round-trip so a healthy loop never sleeps.
func (w *Worker) pollLoop(ctx context.Context, cancel context.CancelFunc, slot int) {
	poll, err := json.Marshal(pollRequest{Worker: w.cfg.Name})
	if err != nil {
		cancel()
		return
	}
	rng := w.rngFor(fmt.Sprintf("poll-%d", slot))
	failures := 0
	for ctx.Err() == nil {
		body, status, hdr, err := w.post(ctx, pathPoll, poll, "application/json")
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			failures++
			w.logf("dist: worker %s: poll: %v", w.cfg.Name, err)
			if status == http.StatusOK {
				// The task body broke off in transit: hand the dispatch
				// back now, as for a body that arrives corrupted.
				w.nack(ctx, hdr.Get(headerDispatch), err)
			}
			retry.Sleep(ctx, w.backoff.Delay(failures, rng)) //nolint:errcheck // loop re-checks ctx
		case status == http.StatusNoContent:
			// Idle poll; go straight back — the poll is the heartbeat.
			failures = 0
		case status == http.StatusGone:
			w.logf("dist: worker %s: coordinator closed, exiting", w.cfg.Name)
			cancel()
			return
		case status == http.StatusOK:
			failures = 0
			w.runTask(ctx, body, hdr.Get(headerDispatch), rng)
		default:
			failures++
			w.logf("dist: worker %s: poll: HTTP %d", w.cfg.Name, status)
			retry.Sleep(ctx, w.backoff.Delay(failures, rng)) //nolint:errcheck // loop re-checks ctx
		}
	}
}

// runTask executes one dispatched task and reports its result. A task
// interrupted by worker shutdown is silently dropped — the coordinator's
// lease machinery re-dispatches it elsewhere. A payload that fails to
// decode (corrupted in transit: the integrity frame catches every flipped
// bit) is nacked by the dispatch ID riding in the response header, so the
// coordinator re-queues it immediately.
func (w *Worker) runTask(ctx context.Context, body []byte, dispatchHdr string, rng *rand.Rand) {
	h, mt, rt, err := decodeTaskBody(body)
	if err != nil {
		w.logf("dist: worker %s: undecodable task payload: %v (nacking dispatch %q)", w.cfg.Name, err, dispatchHdr)
		w.nack(ctx, dispatchHdr, err)
		return
	}
	if w.cfg.OnTask != nil {
		w.cfg.OnTask(h.Phase, h.Task)
	}
	if ctx.Err() != nil {
		return
	}
	resp := w.execute(ctx, h, mt, rt)
	if resp == nil || ctx.Err() != nil {
		return // killed mid-task; never report partial work
	}
	w.sendResult(ctx, h, resp, rng)
}

// execute runs one decoded task through the in-process executor and
// encodes its result body: the task's output, or an error result when its
// code fails. It returns nil only if not even the error result encodes.
func (w *Worker) execute(ctx context.Context, h taskHeader, mt *mapreduce.MapTask, rt *mapreduce.ReduceTask) []byte {
	rh := resultHeader{Job: h.Job, Phase: h.Phase, Task: h.Task, Dispatch: h.Dispatch, Worker: w.cfg.Name}
	var resp []byte
	job, err := w.jobFor(h.Spec)
	if err == nil {
		tr := obs.NewTrace(fmt.Sprintf("dist-task-%d", h.Dispatch))
		exec := mapreduce.NewLocalExecutor(job.Mapper, job.Reducer, job.Partitioner, tr)
		switch {
		case mt != nil:
			var res *mapreduce.MapResult
			if res, err = exec.ExecMap(ctx, *mt); err == nil {
				rh.Metric, rh.Spans = metricToWire(res.Metric), spansToWire(tr.Spans())
				resp, err = encodeMapResultBody(rh, res)
			}
		default:
			var res *mapreduce.ReduceResult
			if res, err = exec.ExecReduce(ctx, *rt); err == nil {
				rh.Metric, rh.Spans = metricToWire(res.Metric), spansToWire(tr.Spans())
				resp, err = encodeReduceResultBody(rh, res)
			}
		}
	}
	if err != nil {
		rh.Err = err.Error()
		if resp, err = encodeErrorResultBody(rh); err != nil {
			w.logf("dist: worker %s: encoding error result: %v", w.cfg.Name, err)
			return nil
		}
	}
	return resp
}

// sendResult posts one result, retrying transport failures and non-OK
// statuses on the worker's backoff. Re-sends are safe: the coordinator
// settles each task once and discards duplicates as late results. If the
// attempts run out, the dispatch is left to its deadline: the worker keeps
// polling, so its lease never expires, and the coordinator re-queues the
// task once the dispatch has run past its deadline — at-least-once
// delivery, never silent at-most-once.
func (w *Worker) sendResult(ctx context.Context, h taskHeader, resp []byte, rng *rand.Rand) {
	for attempt := 1; ; attempt++ {
		_, status, _, err := w.post(ctx, pathResult, resp, "application/octet-stream")
		switch {
		case ctx.Err() != nil:
			return
		case err == nil && status == http.StatusOK:
			return
		case err == nil && status == http.StatusGone:
			return // coordinator closed; the poll loop will observe it too
		}
		if err != nil {
			w.logf("dist: worker %s: reporting %s task %d (attempt %d): %v", w.cfg.Name, h.Phase, h.Task, attempt, err)
		} else {
			w.logf("dist: worker %s: reporting %s task %d (attempt %d): HTTP %d", w.cfg.Name, h.Phase, h.Task, attempt, status)
		}
		if attempt >= resultAttempts {
			w.logf("dist: worker %s: giving up on %s task %d result after %d attempts; the coordinator re-runs it past the dispatch's deadline",
				w.cfg.Name, h.Phase, h.Task, attempt)
			return
		}
		if retry.Sleep(ctx, w.backoff.Delay(attempt, rng)) != nil {
			return
		}
	}
}

// nack tells the coordinator a dispatch arrived undecodable. Best effort:
// if the nack itself is lost, the dispatch's deadline still re-queues the
// task.
func (w *Worker) nack(ctx context.Context, dispatchHdr string, cause error) {
	if dispatchHdr == "" {
		return
	}
	var dispatch uint64
	if _, err := fmt.Sscanf(dispatchHdr, "%d", &dispatch); err != nil {
		return
	}
	req, err := json.Marshal(nackRequest{Worker: w.cfg.Name, Dispatch: dispatch, Reason: cause.Error()})
	if err != nil {
		return
	}
	if _, status, _, err := w.post(ctx, pathNack, req, "application/json"); err != nil {
		w.logf("dist: worker %s: nack dispatch %d: %v", w.cfg.Name, dispatch, err)
	} else if status != http.StatusOK {
		w.logf("dist: worker %s: nack dispatch %d: HTTP %d", w.cfg.Name, dispatch, status)
	}
}

// jobFor builds (or returns the cached) job logic for a spec. Negative
// results are cached too: an unbuildable spec stays unbuildable.
func (w *Worker) jobFor(spec JobSpec) (*Job, error) {
	key := spec.Kind + "\x00" + string(spec.Config)
	w.mu.Lock()
	defer w.mu.Unlock()
	if b, ok := w.jobs[key]; ok {
		return b.job, b.err
	}
	job, err := BuildJob(spec)
	w.jobs[key] = builtJob{job: job, err: err}
	return job, err
}

// post issues one POST and returns the response body, status, and headers.
func (w *Worker) post(ctx context.Context, path string, body []byte, contentType string) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	// A response body has no limit of its own: the coordinator sizes it.
	data, err := readBody(resp.Body, resp.ContentLength, math.MaxInt64)
	if err != nil {
		return nil, resp.StatusCode, resp.Header, err
	}
	return data, resp.StatusCode, resp.Header, nil
}

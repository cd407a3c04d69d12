// Schedule harness: the coordinator's task recovery replayed without
// sockets. Each schedule builds a coordinator with no listener and no
// sweeper, calls its poll, result and nack handlers through
// httptest.NewRecorder, and calls sweep on a clock the schedule moves
// itself, so no schedule sleeps. A seeded mix of polls, finished, lost,
// duplicate and late results, nacks, stalls and silent workers runs one
// small MapReduce job; then every worker comes back and behaves. The job
// must end in the local engine's output, or in ErrWorkerLost with no task
// dispatched more than MaxTaskDispatches times. A job that does neither is
// stuck, and fails the test.
//
//	go test ./internal/dist/ -run RecoverySchedules -schedules=20000
//	go test ./internal/dist/ -run RecoverySchedules -schedule.seed=N -v
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dod/internal/errs"
	"dod/internal/mapreduce"
)

var (
	scheduleCount = flag.Int("schedules", 1000, "how many seeded schedules TestRecoverySchedules runs")
	scheduleSeed  = flag.Int64("schedule.seed", 0, "run only the recovery schedule with this seed")
)

// scheduleKind is the job every schedule runs: each input byte b becomes
// the pair (b mod 5, b), and a reducer concatenates its key's values, so
// the output's bytes depend on every map task's.
const scheduleKind = "dist-schedule/v1"

var (
	scheduleMapper = mapreduce.MapperFunc(func(_ *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
		for _, b := range split.Data {
			emit(uint64(b%5), []byte{b})
		}
		return nil
	})
	scheduleReducer = mapreduce.ReducerFunc(func(_ *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		emit(key, bytes.Join(values, nil))
		return nil
	})
)

func init() {
	RegisterJob(scheduleKind, func([]byte) (*Job, error) {
		return &Job{Mapper: scheduleMapper, Reducer: scheduleReducer}, nil
	})
}

// scheduleConfig is the coordinator every seeded schedule runs.
func scheduleConfig(seed int64) Config {
	return Config{
		LeaseTTL:          time.Second,
		MaxTaskDispatches: 1 + int(seed%8),
	}
}

// drainRounds bounds the well-behaved rounds after a schedule's moves. A
// round moves the clock half a lease, so the bound covers a task that
// uses its whole dispatch budget at the lease's pace.
const drainRounds = 1024

// TestRecoverySchedules runs -schedules seeded schedules (or only
// -schedule.seed) against the coordinator's recovery rules.
func TestRecoverySchedules(t *testing.T) {
	first, n := int64(1), int64(*scheduleCount)
	if *scheduleSeed > 0 {
		first, n = *scheduleSeed, 1
	}
	failures, lost := 0, 0
	for seed := first; seed < first+n && failures < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := scheduleCase{
			cfg:     scheduleConfig(seed),
			maps:    1 + rng.Intn(4),
			reduces: 1 + rng.Intn(3),
			workers: 1 + rng.Intn(3),
		}
		switch msg := runSchedule(t, sc, rng); msg {
		case "":
		case workerLost:
			lost++
		default:
			failures++
			t.Errorf("schedule seed %d: %s\nreplay with: go test ./internal/dist/ -run RecoverySchedules -schedule.seed=%d -v", seed, msg, seed)
		}
	}
	t.Logf("%d schedules: %d ended in the local engine's output, %d in ErrWorkerLost", n, n-int64(lost), lost)
}

// workerLost is runSchedule's report of a job that failed, as it may, with
// ErrWorkerLost within the dispatch budget.
const workerLost = "ErrWorkerLost"

// scheduleCase is one schedule's coordinator, job shape and worker count;
// script, when set, replaces the moves drawn from the seed.
type scheduleCase struct {
	cfg                    Config
	maps, reduces, workers int
	script                 []move
}

// move is one step of a schedule. finish's fate is ok, lost (the result
// never arrives), dup (it arrives twice) or late (it is held back and
// posted by a later "late" move).
type move struct {
	op     string // poll, finish, nack, late, tick, silence
	worker int
	fate   string
	dt     time.Duration
}

func randomMove(rng *rand.Rand, workers int, lease time.Duration) move {
	m := move{worker: rng.Intn(workers)}
	switch r := rng.Intn(100); {
	case r < 30:
		m.op = "poll"
	case r < 55:
		m.op = "finish"
		m.fate = [...]string{"ok", "ok", "ok", "lost", "dup", "late"}[rng.Intn(6)]
	case r < 62:
		m.op = "nack"
	case r < 70:
		m.op = "late"
	case r < 92:
		m.op = "tick" // mostly a short step; sometimes a stall past the lease
		if rng.Intn(4) == 0 {
			m.dt = time.Duration(rng.Int63n(int64(2 * lease)))
		} else {
			m.dt = time.Duration(rng.Int63n(int64(lease / 4)))
		}
	default:
		m.op = "silence"
	}
	return m
}

type simWorker struct {
	w      *Worker // executes tasks; never dials the coordinator
	silent bool
	held   [][]byte // task bodies polled but not yet answered
}

// schedule is one run: the coordinator, its clock, the workers and the
// MapReduce driver running the job on its own goroutines.
type schedule struct {
	t       *testing.T
	c       *Coordinator
	rng     *rand.Rand
	clock   time.Time
	workers []*simWorker
	late    [][]byte        // result bodies held back
	sent    map[taskKey]int // dispatches received per task
	gone    context.Context // a cancelled context: polls return at once
	trace   []string

	exec          *countingExecutor
	job           *jobRun
	maps, reduces int64
	sorted        int64 // driver calls when the queue was last put in task order
	done          chan struct{}
	res           *mapreduce.Result
	err           error
}

// runSchedule plays one schedule and returns "" if the job ended in the
// local engine's output, workerLost if it failed within its dispatch
// budget, and otherwise what went wrong.
func runSchedule(t *testing.T, sc scheduleCase, rng *rand.Rand) string {
	t.Helper()
	c, err := newCoordinator(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	s := &schedule{
		t: t, c: c, rng: rng, clock: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		sent: make(map[taskKey]int), gone: gone,
		maps: int64(sc.maps), reduces: int64(sc.reduces), done: make(chan struct{}),
	}
	c.now = func() time.Time { return s.clock }
	for i := 0; i < sc.workers; i++ {
		w, err := NewWorker(WorkerConfig{Coordinator: "schedule", Name: fmt.Sprintf("w%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		s.workers = append(s.workers, &simWorker{w: w})
	}

	splits := make([]mapreduce.Split, sc.maps)
	for i := range splits {
		data := make([]byte, 1+rng.Intn(8))
		rng.Read(data)
		splits[i] = mapreduce.Split{Name: fmt.Sprintf("s%d", i), Data: data}
	}
	mrcfg := mapreduce.Config{NumReducers: sc.reduces, Parallelism: 8}
	local, err := mapreduce.RunContext(context.Background(), mrcfg, splits, scheduleMapper, scheduleReducer)
	if err != nil {
		t.Fatal(err)
	}
	remote := c.Executor(JobSpec{Kind: scheduleKind})
	s.exec, s.job = &countingExecutor{inner: remote}, remote.(*remoteExecutor).job
	mrcfg.Executor = s.exec
	jobCtx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() {
		defer close(s.done)
		s.res, s.err = mapreduce.RunContext(jobCtx, mrcfg, splits, nil, nil)
	}()
	s.settle()

	moves := sc.script
	if moves == nil {
		for n := 5 + rng.Intn(60); n > 0; n-- {
			moves = append(moves, randomMove(rng, len(s.workers), c.cfg.LeaseTTL))
		}
	}
	for _, m := range moves {
		s.trace = append(s.trace, fmt.Sprintf("%+v", m))
		s.apply(m)
	}
	s.trace = append(s.trace, "drain")
	s.drain(c.cfg.LeaseTTL)

	select {
	case <-s.done:
	default:
		stop()
		<-s.done
		return "stuck: the job neither finished nor failed\n" + s.tail()
	}
	switch {
	case s.err != nil && !errors.Is(s.err, errs.ErrWorkerLost):
		return fmt.Sprintf("job failed with %v, want ErrWorkerLost\n%s", s.err, s.tail())
	case s.err == nil && !reflect.DeepEqual(local.Output, s.res.Output):
		return fmt.Sprintf("output %v differs from the local engine's %v\n%s", s.res.Output, local.Output, s.tail())
	}
	for k, n := range s.sent {
		if n > c.cfg.MaxTaskDispatches {
			return fmt.Sprintf("%s task %d dispatched %d times, budget %d\n%s", k.phase, k.id, n, c.cfg.MaxTaskDispatches, s.tail())
		}
	}
	if s.err != nil {
		return workerLost
	}
	return ""
}

// drain ends a schedule's chaos: each round every worker comes back,
// answers what it holds, posts the held-back results and polls until the
// queue is empty; then the clock moves half a lease, so a worker that
// keeps polling keeps its lease.
func (s *schedule) drain(lease time.Duration) {
	for round := 0; round < drainRounds && !s.finished(); round++ {
		for _, w := range s.workers {
			w.silent = false
			for len(w.held) > 0 {
				s.finish(w, "ok")
			}
		}
		for len(s.late) > 0 {
			s.apply(move{op: "late"})
		}
		for _, w := range s.workers {
			for s.poll(w) {
				s.finish(w, "ok")
			}
		}
		s.apply(move{op: "tick", dt: lease / 2})
	}
}

func (s *schedule) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *schedule) apply(m move) {
	w := s.workers[m.worker]
	switch m.op {
	case "poll":
		if !w.silent {
			s.poll(w)
		}
	case "finish":
		if !w.silent && len(w.held) > 0 {
			s.finish(w, m.fate)
		}
	case "nack":
		if !w.silent && len(w.held) > 0 {
			h, _, _, _ := decodeTaskBody(s.take(w))
			req, _ := json.Marshal(nackRequest{Worker: w.w.cfg.Name, Dispatch: h.Dispatch, Reason: "corrupt payload"})
			s.post(s.c.handleNack, pathNack, req)
		}
	case "late":
		if len(s.late) > 0 {
			i := s.rng.Intn(len(s.late))
			body := s.late[i]
			s.late = append(s.late[:i], s.late[i+1:]...)
			s.post(s.c.handleResult, pathResult, body)
		}
	case "tick":
		s.clock = s.clock.Add(m.dt)
		s.c.sweep(s.clock)
		s.settle()
	case "silence":
		w.silent = !w.silent
	}
}

// poll asks for one task without waiting; it reports whether one came.
func (s *schedule) poll(w *simWorker) bool {
	req, _ := json.Marshal(pollRequest{Worker: w.w.cfg.Name})
	rec := httptest.NewRecorder()
	s.c.handlePoll(rec, httptest.NewRequest(http.MethodPost, pathPoll, bytes.NewReader(req)).WithContext(s.gone))
	if rec.Header().Get(headerDispatch) == "" {
		return false
	}
	body := rec.Body.Bytes()
	h, _, _, err := decodeTaskBody(body)
	if err != nil {
		s.t.Fatalf("undecodable task body: %v", err)
	}
	s.sent[taskKey{h.Phase, h.Task}]++
	s.trace = append(s.trace, fmt.Sprintf("  %s got %s task %d, dispatch %d", w.w.cfg.Name, h.Phase, h.Task, h.Dispatch))
	w.held = append(w.held, body)
	return true
}

// take removes one held task body, chosen by the seed.
func (s *schedule) take(w *simWorker) []byte {
	i := s.rng.Intn(len(w.held))
	body := w.held[i]
	w.held = append(w.held[:i], w.held[i+1:]...)
	return body
}

func (s *schedule) finish(w *simWorker, fate string) {
	h, mt, rt, _ := decodeTaskBody(s.take(w))
	resp := w.w.execute(context.Background(), h, mt, rt)
	switch fate {
	case "ok":
		s.post(s.c.handleResult, pathResult, resp)
	case "dup":
		s.post(s.c.handleResult, pathResult, resp)
		s.post(s.c.handleResult, pathResult, resp)
	case "late":
		s.late = append(s.late, resp)
	}
}

func (s *schedule) post(handler http.HandlerFunc, path string, body []byte) {
	rec := httptest.NewRecorder()
	handler(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		s.t.Fatalf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body)
	}
	s.settle()
}

// settle waits until the driver has returned or each of its calls into the
// coordinator is parked on a registered task, so the next move sees every
// task the driver will submit. A phase's tasks are enqueued by concurrent
// driver goroutines; settle puts them in task order once they are all in,
// so the queue a schedule sees does not depend on which ran first.
func (s *schedule) settle() {
	limit := time.Now().Add(10 * time.Second)
	for !s.finished() {
		started, inflight := s.exec.counts()
		s.c.mu.Lock()
		parked := inflight > 0 && int64(len(s.job.tasks)) == inflight &&
			(started == s.maps || started == s.maps+s.reduces)
		if parked && started != s.sorted {
			sort.SliceStable(s.c.queue, func(i, j int) bool { return s.c.queue[i].id < s.c.queue[j].id })
			s.sorted = started
		}
		s.c.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(limit) {
			s.t.Fatal("the MapReduce driver never parked on its tasks")
		}
		runtime.Gosched()
	}
}

func (s *schedule) tail() string {
	const keep = 60
	tr := s.trace
	if len(tr) > keep {
		tr = tr[len(tr)-keep:]
	}
	return "last moves:\n" + strings.Join(tr, "\n")
}

// countingExecutor counts the driver's calls into the coordinator.
type countingExecutor struct {
	inner             mapreduce.Executor
	mu                sync.Mutex
	started, inflight int64
}

func (e *countingExecutor) counts() (started, inflight int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.started, e.inflight
}

func (e *countingExecutor) enter() {
	e.mu.Lock()
	e.started++
	e.inflight++
	e.mu.Unlock()
}

func (e *countingExecutor) leave() {
	e.mu.Lock()
	e.inflight--
	e.mu.Unlock()
}

func (e *countingExecutor) ExecMap(ctx context.Context, t mapreduce.MapTask) (*mapreduce.MapResult, error) {
	e.enter()
	defer e.leave()
	return e.inner.ExecMap(ctx, t)
}

func (e *countingExecutor) ExecReduce(ctx context.Context, t mapreduce.ReduceTask) (*mapreduce.ReduceResult, error) {
	e.enter()
	defer e.leave()
	return e.inner.ExecReduce(ctx, t)
}

// TestRecoveryLostResult is the schedule that hung the default
// configuration before every dispatch had a deadline: a one-task job
// whose result is lost after the worker's sends run out, while the worker
// keeps polling. Its lease never expires, and no finished task gives a
// median; the dispatch's deadline (the lease, here) re-queues the task.
func TestRecoveryLostResult(t *testing.T) {
	sc := scheduleCase{
		maps: 1, reduces: 1, workers: 1,
		script: []move{{op: "poll"}, {op: "finish", fate: "lost"}},
	}
	if msg := runSchedule(t, sc, rand.New(rand.NewSource(1))); msg != "" {
		t.Fatal(msg)
	}
}

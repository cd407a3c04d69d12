// Tests here run real loopback clusters: one coordinator plus several
// in-process workers talking HTTP, exercising the exact wire path the
// cmd/dodworker binary uses. The external test package lets them drive
// internal/core (which registers the detection job) without an import
// cycle.
package dist_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/dist"
	"dod/internal/errs"
	"dod/internal/mapreduce"
	"dod/internal/plan"
	"dod/internal/synth"
)

// ---- test fixtures ----

func testInput(t *testing.T, n int) *core.Input {
	t.Helper()
	points := synth.Segment(synth.Massachusetts, n, 7)
	input, err := core.InputFromPoints(points, 500)
	if err != nil {
		t.Fatal(err)
	}
	return input
}

// coreConfig is the shared detection configuration; local and cluster runs
// must agree on every seed-bearing field to be comparable.
func coreConfig() core.Config {
	return core.Config{
		Params:     detect.Params{R: 5, K: 4},
		PlanOpts:   plan.Options{NumReducers: 6},
		SampleRate: 1.0,
		Seed:       3,
	}
}

func newCoordinator(t *testing.T, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord, err := dist.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// startWorker runs an in-process worker against the coordinator until the
// test ends (or ctx is cancelled by the caller via the returned cancel).
func startWorker(t *testing.T, coord *dist.Coordinator, name string, parallelism int, onTask func(phase string, task int)) context.CancelFunc {
	t.Helper()
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: coord.URL(),
		Name:        name,
		Parallelism: parallelism,
		Logf:        t.Logf,
		OnTask:      onTask,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

func runDetection(t *testing.T, input *core.Input, cfg core.Config) *core.Report {
	t.Helper()
	rep, err := core.Run(context.Background(), input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// ---- the headline guarantee: cluster == local, byte for byte ----

func TestClusterMatchesLocal(t *testing.T) {
	input := testInput(t, 4000)
	local := runDetection(t, input, coreConfig())
	if len(local.Outliers) == 0 {
		t.Fatal("test dataset produced no outliers; the equality check would be vacuous")
	}

	coord := newCoordinator(t, dist.Config{})
	for _, name := range []string{"w1", "w2", "w3"} {
		startWorker(t, coord, name, 2, nil)
	}
	if err := coord.WaitForWorkers(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	cfg := coreConfig()
	cfg.ExecutorFor = core.ClusterExecutorFor(coord)
	clustered := runDetection(t, input, cfg)

	if !reflect.DeepEqual(local.Outliers, clustered.Outliers) {
		t.Errorf("cluster outliers diverge from local: %d vs %d IDs", len(clustered.Outliers), len(local.Outliers))
	}
	if local.Engine != "local" || clustered.Engine != "cluster" {
		t.Errorf("engines: local=%q clustered=%q", local.Engine, clustered.Engine)
	}

	// Remote spans must have been shipped back into the job trace.
	span, ok := clustered.Trace.Find("partition.detect")
	if !ok {
		t.Error("cluster run trace has no partition.detect span from workers")
	} else if span.Attr("algo") == "" {
		t.Error("shipped-back span lost its attributes")
	}

	st := coord.Stats()
	if st.TasksOK == 0 || st.Dispatches == 0 {
		t.Errorf("stats recorded no work: %+v", st)
	}
	if st.BytesShipped == 0 || st.BytesCollected == 0 {
		t.Errorf("wire byte counters empty: %+v", st)
	}
	if st.Heartbeats == 0 {
		t.Errorf("no heartbeats recorded: %+v", st)
	}
}

// TestClusterEndpoints scrapes the coordinator's HTTP surface.
func TestClusterEndpoints(t *testing.T) {
	coord := newCoordinator(t, dist.Config{})
	startWorker(t, coord, "w1", 1, nil)
	if err := coord.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(coord.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	for _, want := range []string{"dod_dist_workers 1", "dod_dist_heartbeats_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(coord.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "ok" || health.Workers != 1 {
		t.Errorf("/healthz: %+v, %v", health, err)
	}
}

// ---- chaos: kill a worker mid-job ----

// TestWorkerKilledMidJob force-closes one worker the moment it receives a
// reduce task (the moral equivalent of SIGKILL: its poll loops stop dead,
// nothing is reported back). The job must still complete with outliers
// byte-identical to the local engine on the same seed. Two rules can
// withdraw the victim's dispatch and they race on the wall clock — lease
// expiry (300 ms of silence here) and the dispatch's deadline (the lease,
// or 200 ms once three reduce tasks have finished) — so the test accepts
// either winner: the outcome is the invariant.
func TestWorkerKilledMidJob(t *testing.T) {
	input := testInput(t, 4000)
	local := runDetection(t, input, coreConfig())

	coord := newCoordinator(t, dist.Config{LeaseTTL: 300 * time.Millisecond})

	// The victim gets the most slots so it is sure to be holding reduce
	// work when it dies.
	var killed atomic.Bool
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victim, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: coord.URL(),
		Name:        "victim",
		Parallelism: 4,
		Logf:        t.Logf,
		OnTask: func(phase string, task int) {
			if phase == "reduce" && killed.CompareAndSwap(false, true) {
				killVictim()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victim.Run(victimCtx) //nolint:errcheck
	}()
	t.Cleanup(func() { killVictim(); <-victimDone })

	startWorker(t, coord, "survivor-1", 1, nil)
	startWorker(t, coord, "survivor-2", 1, nil)
	if err := coord.WaitForWorkers(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	cfg := coreConfig()
	cfg.ExecutorFor = core.ClusterExecutorFor(coord)
	clustered := runDetection(t, input, cfg)

	if !killed.Load() {
		t.Fatal("victim was never handed a reduce task; chaos did not happen")
	}
	if !reflect.DeepEqual(local.Outliers, clustered.Outliers) {
		t.Errorf("outliers diverged after worker loss: %d vs %d IDs", len(clustered.Outliers), len(local.Outliers))
	}
	st := coord.Stats()
	leaseRecovered := st.WorkersLost > 0 && st.Redispatches > 0
	if !leaseRecovered && st.Deadlines == 0 {
		t.Errorf("job finished with neither lease re-dispatch nor a passed deadline recorded: %+v", st)
	}
}

// ---- scheduling-level tests use a tiny registered test job ----

// echoSpec names a job whose map echoes its split and whose reduce counts
// the values of each key.
var echoSpec = dist.JobSpec{Kind: "dist-test.echo/v1"}

func init() {
	dist.RegisterJob(echoSpec.Kind, func([]byte) (*dist.Job, error) {
		return &dist.Job{
			Mapper: mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
				emit(0, append([]byte(nil), split.Data...))
				return nil
			}),
			Reducer: mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
				emit(key, binary.AppendUvarint(nil, uint64(len(values))))
				return nil
			}),
		}, nil
	})
}

// runEchoJob runs the echo job on one split through the coordinator.
func runEchoJob(coord *dist.Coordinator) error {
	_, err := mapreduce.RunContext(context.Background(), mapreduce.Config{
		NumReducers: 1,
		Executor:    coord.Executor(echoSpec),
	}, []mapreduce.Split{{Name: "a", Data: []byte{0}}}, nil, nil)
	return err
}

// TestWorkerLostExhausted kills the only worker and forbids re-dispatch:
// the job must fail with ErrWorkerLost instead of hanging.
func TestWorkerLostExhausted(t *testing.T) {
	coord := newCoordinator(t, dist.Config{
		LeaseTTL:          150 * time.Millisecond,
		MaxTaskDispatches: 1,
	})
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victim, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: coord.URL(),
		Name:        "victim",
		Parallelism: 1,
		OnTask:      func(string, int) { killVictim() },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		victim.Run(victimCtx) //nolint:errcheck
	}()
	t.Cleanup(func() { <-done })

	if err := coord.WaitForWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	err = runEchoJob(coord)
	if !errors.Is(err, errs.ErrWorkerLost) {
		t.Errorf("job error = %v, want ErrWorkerLost", err)
	}
	if st := coord.Stats(); st.WorkersLost == 0 {
		t.Errorf("worker loss not recorded: %+v", st)
	}
}

// TestCoordinatorCloseAborts closes the coordinator under a waiting job.
func TestCoordinatorCloseAborts(t *testing.T) {
	coord := newCoordinator(t, dist.Config{})
	exec := coord.Executor(echoSpec)

	errc := make(chan error, 1)
	go func() {
		_, err := exec.ExecMap(context.Background(), mapreduce.MapTask{
			TaskID: 0, NumReducers: 1,
			Split: mapreduce.Split{Name: "a", Data: []byte{1}},
		})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the task enqueue
	coord.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errs.ErrJobAborted) {
			t.Errorf("ExecMap error = %v, want ErrJobAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecMap still blocked after Close")
	}

	// And everything after Close fails fast.
	if _, err := exec.ExecReduce(context.Background(), mapreduce.ReduceTask{TaskID: 0}); !errors.Is(err, errs.ErrJobAborted) {
		t.Errorf("post-Close ExecReduce error = %v, want ErrJobAborted", err)
	}
}

// TestBuildJobUnknownKind covers the registry's failure path workers hit
// when their binary lacks a job registration import.
func TestBuildJobUnknownKind(t *testing.T) {
	_, err := dist.BuildJob(dist.JobSpec{Kind: "nope/v9"})
	if !errors.Is(err, errs.ErrJobAborted) {
		t.Errorf("BuildJob error = %v, want ErrJobAborted", err)
	}
}

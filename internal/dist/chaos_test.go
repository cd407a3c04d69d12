// Chaos harness: the cluster's byte-identity guarantee under seeded,
// reproducible transport faults.
//
// Every worker's HTTP client is wrapped in fault.Transport, which injects
// latency, errors, dropped responses, corrupted bytes, and partition
// windows from per-site PRNG streams that are a pure function of
// (seed, site). The matrix runs a fixed set of seeds; any failure prints
// its seed and fault schedule, and
//
//	go test ./internal/dist/ -run Chaos -fault.seed=N
//
// replays exactly that schedule.
package dist_test

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"dod/internal/core"
	"dod/internal/dist"
	"dod/internal/fault"
)

// faultSeed, when set (>0), narrows the chaos matrix to a single seed —
// the replay knob for a failing schedule.
var faultSeed = flag.Int64("fault.seed", 0, "run the chaos matrix with only this fault-injection seed")

// chaosSeeds is the fixed PR matrix; CI's nightly job rotates others in.
var chaosSeeds = []int64{101, 102, 103, 104, 105, 106, 107, 108}

// chaosRules is the fault mix every worker's transport rolls per request.
// Probabilities are tuned so faults are frequent enough to exercise every
// recovery path (retry, nack, re-dispatch, lease expiry) while jobs still
// converge within the test budget.
func chaosRules() []fault.Rule {
	return []fault.Rule{{
		Site:         "chaos-*",
		PLatency:     0.20,
		MaxLatency:   5 * time.Millisecond,
		PError:       0.05,
		PDrop:        0.03,
		PCorrupt:     0.03,
		PPartition:   0.01,
		PartitionLen: 4,
	}}
}

// startChaosWorker supervises one worker under fault injection: if the
// worker process dies (e.g. its join handshake was corrupted past retries,
// or the transport wedged), it is restarted under the same name — the
// cluster-operator behavior the lease protocol is designed for.
func startChaosWorker(t *testing.T, coord *dist.Coordinator, name string, in *fault.Injector) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			w, err := dist.NewWorker(dist.WorkerConfig{
				Coordinator: coord.URL(),
				Name:        name,
				Parallelism: 2,
				Client:      &http.Client{Transport: fault.Transport(nil, in, name+":")},
				Logf:        t.Logf,
			})
			if err != nil {
				t.Errorf("chaos worker %s: %v", name, err)
				return
			}
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Logf("chaos worker %s died: %v (restarting)", name, err)
				continue
			}
			return
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestChaosMatrix runs the full detection job over a faulty cluster for
// every seed in the matrix and requires the outlier set to be
// byte-identical to the fault-free local engine each time. This is the
// repo's core resilience claim: faults may cost time, never correctness.
func TestChaosMatrix(t *testing.T) {
	input := testInput(t, 2000)
	local := runDetection(t, input, coreConfig())
	if len(local.Outliers) == 0 {
		t.Fatal("test dataset produced no outliers; byte-identity would be vacuous")
	}

	seeds := chaosSeeds
	if *faultSeed > 0 {
		seeds = []int64{*faultSeed}
	} else if testing.Short() {
		seeds = seeds[:2]
	}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(fault.Config{Seed: seed, Rules: chaosRules()})
			coord := newCoordinator(t, dist.Config{
				LeaseTTL:          500 * time.Millisecond,
				MaxTaskDispatches: 24,
			})
			for i := 0; i < 3; i++ {
				startChaosWorker(t, coord, fmt.Sprintf("chaos-w%d", i), in)
			}
			if err := coord.WaitForWorkers(context.Background(), 3); err != nil {
				t.Fatal(err)
			}

			cfg := coreConfig()
			cfg.ExecutorFor = core.ClusterExecutorFor(coord)
			rep, err := core.Run(context.Background(), input, cfg)
			if err != nil {
				dumpSchedule(t, seed, in)
				t.Fatalf("cluster run under fault seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(local.Outliers, rep.Outliers) {
				dumpSchedule(t, seed, in)
				t.Fatalf("fault seed %d changed results: %d vs %d outliers",
					seed, len(rep.Outliers), len(local.Outliers))
			}
			t.Logf("seed %d: ok (%d faults injected, stats %+v)", seed, len(in.Schedule()), coord.Stats())
		})
	}
}

// dumpSchedule prints the exact fault schedule of a failing run so it can
// be attached to a CI artifact and replayed with -fault.seed.
func dumpSchedule(t *testing.T, seed int64, in *fault.Injector) {
	t.Helper()
	t.Logf("replay with: go test ./internal/dist/ -run Chaos -fault.seed=%d", seed)
	for _, d := range in.Schedule() {
		t.Logf("fault schedule: site=%s call=%d kind=%s delay=%v", d.Site, d.Call, d.Fault, d.Delay)
	}
}

// TestCorruptTaskPayloadNacked pins the nack path deterministically: with
// every poll response corrupted, each dispatched payload fails its
// integrity check at the worker, is nacked by dispatch ID, and re-queues
// immediately until the dispatch budget fails the job with ErrWorkerLost —
// instead of hanging behind a healthy-looking heartbeat.
func TestCorruptTaskPayloadNacked(t *testing.T) {
	in := fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{
		{Site: "w1:" + "/dist/v1/poll", PCorrupt: 1},
	}})
	coord := newCoordinator(t, dist.Config{
		LeaseTTL:          5 * time.Second, // leases never expire; only nacks can recycle the task
		MaxTaskDispatches: 3,
	})
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: coord.URL(),
		Name:        "w1",
		Parallelism: 1,
		Client:      &http.Client{Transport: fault.Transport(nil, in, "w1:")},
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

	err = runEchoJob(coord)
	if err == nil {
		t.Fatal("job succeeded though every task payload was corrupted")
	}
	st := coord.Stats()
	if st.Nacks == 0 {
		t.Errorf("no nacks recorded: %+v", st)
	}
	if st.Nacks < 3 {
		t.Errorf("nacks = %d, want one per dispatch (3): %+v", st.Nacks, st)
	}
}

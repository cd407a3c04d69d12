package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"dod"
	"dod/internal/dist"
)

// loopbackCluster is one coordinator and its in-process workers, talking
// over loopback HTTP exactly as separate processes would.
type loopbackCluster struct {
	coord  *dod.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
	taps   []*workerTap // nil entries when not traced
}

// workerTap is the bench's view of one worker from outside: a counting
// transport under its HTTP client and the OnTask seam. A worker runs one
// task slot, so task arrival and the next result post pair up in order.
type workerTap struct {
	next http.RoundTripper

	mu        sync.Mutex
	calls     int
	resultRTT []float64 // seconds, result posts only
	taskStart time.Time // set by OnTask, cleared by the result post
	busy      time.Duration
}

func (t *workerTap) onTask(string, int) {
	t.mu.Lock()
	t.taskStart = time.Now()
	t.mu.Unlock()
}

func (t *workerTap) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	t.mu.Lock()
	t.calls++
	if strings.HasSuffix(req.URL.Path, "/result") {
		t.resultRTT = append(t.resultRTT, end.Sub(start).Seconds())
		if !t.taskStart.IsZero() {
			t.busy += end.Sub(t.taskStart)
			t.taskStart = time.Time{}
		}
	}
	t.mu.Unlock()
	return resp, err
}

type tapTotals struct {
	calls     int
	resultRTT []float64
	busy      time.Duration
}

func (lb *loopbackCluster) tapTotals() tapTotals {
	var tot tapTotals
	for _, t := range lb.taps {
		t.mu.Lock()
		tot.calls += t.calls
		tot.resultRTT = append(tot.resultRTT, t.resultRTT...)
		tot.busy += t.busy
		t.mu.Unlock()
	}
	return tot
}

func startLoopbackCluster(workers int, traced bool) (*loopbackCluster, error) {
	coord, err := dod.NewCoordinator(dod.CoordinatorConfig{})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	lb := &loopbackCluster{coord: coord, cancel: cancel}
	for i := 0; i < workers; i++ {
		wc := dist.WorkerConfig{Coordinator: coord.URL(), Name: fmt.Sprintf("bench-%d", i)}
		if traced {
			tap := &workerTap{next: http.DefaultTransport.(*http.Transport).Clone()}
			lb.taps = append(lb.taps, tap)
			wc.Client = &http.Client{Transport: tap}
			wc.OnTask = tap.onTask
		}
		w, err := dist.NewWorker(wc)
		if err != nil {
			lb.close()
			return nil, fmt.Errorf("worker: %w", err)
		}
		lb.wg.Add(1)
		go func() {
			defer lb.wg.Done()
			w.Run(ctx) //nolint:errcheck // ends with the context; a failed join shows as WaitForWorkers timing out
		}()
	}
	wait, stop := context.WithTimeout(ctx, 10*time.Second)
	defer stop()
	if err := coord.WaitForWorkers(wait, workers); err != nil {
		lb.close()
		return nil, fmt.Errorf("waiting for %d workers: %w", workers, err)
	}
	return lb, nil
}

// close stops the workers, waits for them, then closes the coordinator.
func (lb *loopbackCluster) close() {
	lb.cancel()
	lb.wg.Wait()
	lb.coord.Close() //nolint:errcheck // nothing to do about a listener that will not close
	for _, t := range lb.taps {
		if tr, ok := t.next.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
}

// traceCluster attributes the cluster engine's extra cost: the coordinator's
// own byte and dispatch counters (source: program), the taps' view of the
// workers, and the same job on the local engine for dist.overhead_s. jobs
// are the cluster job times the caller just measured.
func (b *batchRun) traceCluster(res *result, rec *spanRecorder, jobs []float64) {
	n := float64(len(jobs))
	if n == 0 {
		return
	}
	// Everything since the coordinator started, minus the warm-up share:
	// set-up ran spec.warmups jobs through the same workers.
	perJob := func(total float64) float64 { return total / (n + float64(b.spec.warmups)) }
	st := b.lb.coord.Stats()
	res.putProgram("dist.bytes_shipped", perJob(float64(st.BytesShipped)))
	res.putProgram("dist.bytes_collected", perJob(float64(st.BytesCollected)))
	res.putProgram("dist.dispatches", perJob(float64(st.Dispatches)))
	res.putProgram("dist.redispatches", perJob(float64(st.Redispatches)))

	taps := b.lb.tapTotals()
	res.put("dist.http_calls", perJob(float64(taps.calls)))
	res.put("dist.worker_busy_s", perJob(taps.busy.Seconds()))
	res.putMedian("dist.rtt_p50_ms", taps.resultRTT, 1e3)

	var local []float64
	for range jobs {
		start := time.Now()
		_, took := b.job(b.local, res)
		rec.add("job.local", -1, "", start, start.Add(took))
		local = append(local, took.Seconds())
	}
	res.put("dist.overhead_s", median(jobs)-median(local))
}

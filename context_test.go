package dod

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// contextTestConfig is a small but non-trivial pipeline configuration so a
// cancelled run has stages left to skip.
func contextTestConfig() Config {
	return Config{R: 5, K: 4, NumReducers: 4, SampleRate: 1, Seed: 1}
}

func TestDetectContextPreCancelled(t *testing.T) {
	points := testDataset(5000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DetectContext(ctx, points, contextTestConfig())
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The contract is that the error is exactly ctx.Err(), not a wrapper.
	if err != context.Canceled {
		t.Fatalf("err = %#v, want the bare context.Canceled", err)
	}
}

func TestDetectContextCancelMidRun(t *testing.T) {
	points := testDataset(20000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := DetectContext(ctx, points, contextTestConfig())
	elapsed := time.Since(start)
	if err == nil {
		// The run can legitimately win the race on a fast machine; the
		// cancellation contract only covers runs that observe ctx done.
		if res == nil {
			t.Fatal("nil result with nil error")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is cooperative at task granularity, so the run should
	// stop well before a full detection would complete. The bound is
	// generous to stay robust on loaded CI machines.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

// TestDetectContextNoGoroutineLeak verifies that a cancelled run does not
// strand worker goroutines: the count returns to its baseline once
// in-flight tasks drain.
func TestDetectContextNoGoroutineLeak(t *testing.T) {
	points := testDataset(10000, 3)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := DetectContext(ctx, points, contextTestConfig()); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDetectDelegatesToContext(t *testing.T) {
	points := testDataset(2000, 3)
	res1, err := Detect(points, contextTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := DetectContext(context.Background(), points, contextTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.OutlierIDs) != len(res2.OutlierIDs) {
		t.Fatalf("Detect found %d outliers, DetectContext %d", len(res1.OutlierIDs), len(res2.OutlierIDs))
	}
}

func TestResultTrace(t *testing.T) {
	points := testDataset(3000, 3)
	res, err := Detect(points, contextTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Trace()
	if len(spans) == 0 {
		t.Fatal("run recorded no trace spans")
	}
	want := map[string]bool{"input": false, "preprocess": false, "plan": false, "map": false, "shuffle": false, "reduce": false, "partition.detect": false}
	for _, s := range spans {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace is missing a %q span", name)
		}
	}
	for _, s := range spans {
		if s.Name == "partition.detect" {
			if s.Attrs["algo"] == "" {
				t.Errorf("partition.detect span lacks algo attr: %v", s.Attrs)
			}
			break
		}
	}
}

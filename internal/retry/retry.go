// Package retry is the repo's single backoff policy.
//
// Before it existed, dist, serve, and the mapreduce driver each hand-rolled
// a slightly different delay loop (pure exponential, fixed 200ms, doubling
// capped at 100x). They now share one Policy: capped exponential backoff
// with full jitter ("Exponential Backoff And Jitter", AWS Architecture
// Blog), interruptible by context. Full jitter matters under correlated
// failures — when a coordinator or shard drops out, every client retries
// at once, and without jitter they march in lockstep, re-synchronizing
// load spikes at every backoff step.
//
// Jitter draws from a caller-supplied seeded source, so a run's delay
// schedule is reproducible: the fault-injection harness (internal/fault)
// replays failing schedules with the same seed and observes the same
// backoff decisions.
package retry

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"dod/internal/obs"
)

// Policy describes capped exponential backoff with full jitter: the delay
// doubles per attempt. The zero value of any field takes its default.
type Policy struct {
	// Base is the delay before the first retry; default 50ms.
	Base time.Duration
	// Max caps the exponentially-grown delay; default 32 x Base.
	Max time.Duration
	// Jitter selects full jitter (delay drawn uniformly from (0, d]) when
	// true. False keeps the deterministic cap — for tests that assert
	// exact delays.
	Jitter bool
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 32 * p.Base
	}
	return p
}

// Delay returns the backoff before retry number attempt (1-based: attempt 1
// is the first retry). rng supplies the jitter draw and may be nil when
// Jitter is false; pass a seeded *rand.Rand for reproducible schedules.
func (p Policy) Delay(attempt int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= float64(p.Max) {
			break
		}
	}
	if d > float64(p.Max) || d <= 0 {
		d = float64(p.Max)
	}
	if p.Jitter && rng != nil {
		d = rng.Float64() * d
		if d < 1 {
			d = 1 // never a zero sleep: a hot retry loop is worse than 1ns
		}
	}
	return time.Duration(d)
}

// Process-wide backoff accounting. Policies are throwaway value types
// created at every call site, so instrumentation hangs off the package:
// every backoff sleep anywhere in the process lands in these counters, and
// Instrument exposes them on whichever registries want them.
var (
	sleepCount atomic.Int64
	sleepNanos atomic.Int64
)

// Instrument registers the package's dod_retry_* series on reg:
// dod_retry_sleeps_total (backoff sleeps taken process-wide) and
// dod_retry_sleep_seconds_total (their summed requested duration). Safe to
// call on several registries, or repeatedly on one.
func Instrument(reg *obs.Registry) {
	reg.GaugeFunc("dod_retry_sleeps_total",
		"Backoff sleeps taken by retry.Sleep, process-wide.",
		func() float64 { return float64(sleepCount.Load()) })
	reg.GaugeFunc("dod_retry_sleep_seconds_total",
		"Summed requested duration of all backoff sleeps, process-wide.",
		func() float64 { return time.Duration(sleepNanos.Load()).Seconds() })
}

// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
// latter case. A non-positive d returns immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	sleepCount.Add(1)
	sleepNanos.Add(int64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// clock is the time source of the open-loop scheduler; tests inject a
// fake one so no test sleeps or reads the wall clock.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopStats is what one connection's schedule produced. Latencies run
// from the instant a request was DUE, not from when it was sent, so the
// wait a stall imposes on the requests queued behind it is counted.
type openLoopStats struct {
	Latency    []float64 // seconds, due time -> response fully read
	Late       []float64 // seconds, send time - due time (generator lateness)
	BacklogMax int       // most requests due but not yet sent
	// TailLate is the mean lateness over the last quarter of the schedule.
	TailLate time.Duration
	Length   time.Duration // n / rate
}

// valid reports whether the generator kept its schedule: a tail that runs
// more than 5 % of the phase behind means the backlog grew, and the run's
// latencies describe the queue, not the system — invalid, not slow.
func (s openLoopStats) valid() bool {
	return float64(s.TailLate) <= 0.05*float64(s.Length)
}

// runOpenLoop issues n requests on one connection at rate per second:
// request i is due at start + i/rate and is sent then, or as soon as the
// previous one has been answered. do blocks until response i is read.
func runOpenLoop(clk clock, start time.Time, rate float64, n int, do func(i int)) openLoopStats {
	st := openLoopStats{
		Latency: make([]float64, 0, n),
		Late:    make([]float64, 0, n),
		Length:  time.Duration(float64(n) / rate * float64(time.Second)),
	}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		// Requests due by now (0..floor(elapsed/interval)) that are neither
		// sent nor the one being sent.
		if backlog := int(math.Floor(float64(sent.Sub(start))/interval)) - i; backlog > st.BacklogMax {
			st.BacklogMax = backlog
		}
		do(i)
		done := clk.Now()
		st.Late = append(st.Late, sent.Sub(due).Seconds())
		st.Latency = append(st.Latency, done.Sub(due).Seconds())
	}
	if tail := st.Late[len(st.Late)-len(st.Late)/4:]; len(tail) > 0 {
		var sum float64
		for _, l := range tail {
			sum += l
		}
		st.TailLate = time.Duration(sum / float64(len(tail)) * float64(time.Second))
	}
	return st
}

// p99 of a sample regardless of support: the generator's own health
// figures are diagnostics, not gated metrics.
func p99(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, 99)
}

package retry

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i+1, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestDelayZeroValueDefaults(t *testing.T) {
	var p Policy
	if got := p.Delay(1, nil); got != 50*time.Millisecond {
		t.Errorf("zero-value Delay(1) = %v, want 50ms", got)
	}
	if got := p.Delay(100, nil); got != 32*50*time.Millisecond {
		t.Errorf("zero-value Delay(100) = %v, want 1.6s cap", got)
	}
	// Huge attempt counts must not overflow into negative durations.
	if got := p.Delay(1<<30, nil); got <= 0 {
		t.Errorf("Delay(1<<30) = %v, want positive", got)
	}
}

func TestDelayFullJitter(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: true}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		d := p.Delay(3, rng)
		if d <= 0 || d > 40*time.Millisecond {
			t.Fatalf("jittered Delay(3) = %v, want in (0, 40ms]", d)
		}
	}
	// Same seed, same schedule: reproducibility is what the chaos harness
	// leans on.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 1; i <= 32; i++ {
		if p.Delay(i, a) != p.Delay(i, b) {
			t.Fatal("same-seed jitter schedules diverged")
		}
	}
}

func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err != context.Canceled {
		t.Errorf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Errorf("Sleep(0) = %v", err)
	}
	start := time.Now()
	if err := Sleep(context.Background(), 5*time.Millisecond); err != nil {
		t.Errorf("Sleep = %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("Sleep returned early")
	}
}

package sample

import (
	"math"
	"math/rand"
	"testing"
)

// d2Rule is the per-axis sizing every default-configured job used before
// BucketsFor: about 25 expected points per bucket on a 2-D grid, clamped
// to [8, 40].
func d2Rule(n int) int {
	b := int(math.Sqrt(float64(n) / 25))
	if b < 8 {
		b = 8
	}
	if b > 40 {
		b = 40
	}
	return b
}

func TestBucketsForMatchesD2Rule(t *testing.T) {
	for n := 1; n <= 100_000; n++ {
		if got, want := BucketsFor(n, 2), d2Rule(n); got != want {
			t.Fatalf("BucketsFor(%d, 2) = %d, want %d", n, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(100_000_000)
		if got, want := BucketsFor(n, 2), d2Rule(n); got != want {
			t.Fatalf("BucketsFor(%d, 2) = %d, want %d", n, got, want)
		}
	}
}

func TestBucketsPerDimBounds(t *testing.T) {
	if got := BucketsFor(10, 2); got != 8 {
		t.Errorf("tiny n buckets = %d, want 8", got)
	}
	if got := BucketsFor(100_000_000, 2); got != 40 {
		t.Errorf("huge n buckets = %d, want 40", got)
	}
}

// TestBucketsForCapsGrid holds every dimension's default grid to the d = 2
// cell count, and the 1-D grid to the 2-D per-axis count.
func TestBucketsForCapsGrid(t *testing.T) {
	for _, n := range []int{1, 500, 4000, 40_000, 1_000_000, 100_000_000} {
		b := d2Rule(n)
		if got := BucketsFor(n, 1); got != b {
			t.Errorf("BucketsFor(%d, 1) = %d, want %d", n, got, b)
		}
		for d := 1; d <= 64; d++ {
			per := BucketsFor(n, d)
			if per < 1 {
				t.Fatalf("BucketsFor(%d, %d) = %d", n, d, per)
			}
			if cells := math.Pow(float64(per), float64(d)); cells > float64(b*b) {
				t.Errorf("BucketsFor(%d, %d) = %d: %g cells, over %d", n, d, per, cells, b*b)
			}
			// The largest count within the cap: one more per axis is over it.
			if cells := math.Pow(float64(per+1), float64(d)); d > 1 && cells <= float64(b*b) {
				t.Errorf("BucketsFor(%d, %d) = %d, but %d per axis fits", n, d, per, per+1)
			}
		}
	}
	if got := BucketsFor(16_000, 32); got != 1 {
		t.Errorf("BucketsFor(16000, 32) = %d, want 1", got)
	}
}

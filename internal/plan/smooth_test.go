package plan

import (
	"math"
	"math/rand"
	"testing"

	"dod/internal/geom"
	"dod/internal/sample"
)

// smoothHistogramGather is smoothHistogram as a gather: every bucket sums
// its whole 3^d neighbourhood in row-major order. It is the reference the
// scatter form must equal bit for bit.
func smoothHistogramGather(hist *sample.Histogram) *sample.Histogram {
	grid := hist.Grid
	out := &sample.Histogram{Grid: grid, Counts: make([]float64, len(hist.Counts)), Rate: hist.Rate}
	for ord := range hist.Counts {
		var sum float64
		var cells int
		grid.Neighborhood(grid.Unflatten(ord), 1, func(o int) {
			sum += hist.Counts[o]
			cells++
		})
		out.Counts[ord] = sum / float64(cells)
	}
	return out
}

// TestSmoothHistogramMatchesGather compares smoothHistogram with the gather
// in Float64bits on seeded histograms: d = 1-4 (plus one d = 6) with 1-7
// buckets a side, mostly empty buckets and fractional counts, as sampled
// histograms have.
func TestSmoothHistogramMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for inst := 0; inst < 301; inst++ {
		d := 1 + inst%4
		if inst == 300 {
			d = 6
		}
		min, max, dims := make([]float64, d), make([]float64, d), make([]int, d)
		for i := range dims {
			max[i] = 1 + rng.Float64()*10
			dims[i] = 1 + rng.Intn(7)
		}
		grid := geom.NewGrid(geom.NewRect(min, max), dims)
		hist := &sample.Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: 0.3}
		fill := rng.Float64()
		for o := range hist.Counts {
			if rng.Float64() < fill {
				hist.Counts[o] = float64(rng.Intn(50)) / 0.3
			}
		}
		got, want := smoothHistogram(hist), smoothHistogramGather(hist)
		for o := range want.Counts {
			if math.Float64bits(got.Counts[o]) != math.Float64bits(want.Counts[o]) {
				t.Fatalf("instance %d (d=%d, dims %v): bucket %d smoothed to %v, gather %v", inst, d, dims, o, got.Counts[o], want.Counts[o])
			}
		}
	}
}

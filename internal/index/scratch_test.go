package index

import (
	"math/rand"
	"testing"

	"dod/internal/geom"
)

// TestNeighborCountScratchMatches cross-checks the capped count — on a
// reused scratch and through NeighborCount's fresh one — against brute force
// over random windows, dims and limits.
func TestNeighborCountScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 2, 3} {
		const r = 1.5
		ix, err := New(Config{Dim: dim, R: r, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		var pool []geom.Point
		for i := 0; i < 400; i++ {
			coords := make([]float64, dim)
			for d := range coords {
				coords[d] = rng.Float64() * 12
			}
			pool = append(pool, geom.Point{ID: uint64(i), Coords: coords})
			if err := ix.Insert(pool[i]); err != nil {
				t.Fatal(err)
			}
		}
		sc := NewCountScratch()
		for trial := 0; trial < 200; trial++ {
			coords := make([]float64, dim)
			for d := range coords {
				coords[d] = rng.Float64() * 12
			}
			p := geom.Point{ID: uint64(rng.Intn(500)), Coords: coords}
			limit := 1 + rng.Intn(12)
			want := min(bruteCount(p, pool, r), limit)
			got, err := ix.NeighborCountScratch(sc, p, limit)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := ix.NeighborCount(p, limit)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || plain != want {
				t.Fatalf("dim=%d trial=%d limit=%d: scratch %d, plain %d, brute force %d", dim, trial, limit, got, plain, want)
			}
		}
	}
}

// TestNeighborCountScratchErrors pins the error contract.
func TestNeighborCountScratchErrors(t *testing.T) {
	ix, err := New(Config{Dim: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewCountScratch()
	if _, err := ix.NeighborCountScratch(sc, geom.Point{ID: 1, Coords: []float64{1}}, 3); err == nil {
		t.Error("dim mismatch not reported")
	}
	if _, err := ix.NeighborCountScratch(sc, geom.Point{ID: 1, Coords: []float64{1, 2}}, 0); err == nil {
		t.Error("limit 0 not rejected")
	}
}

// TestNeighborCountScratchZeroAlloc is the reason the scratch exists: the
// steady-state query must not allocate.
func TestNeighborCountScratchZeroAlloc(t *testing.T) {
	ix, err := New(Config{Dim: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := ix.Insert(geom.Point{ID: uint64(i), Coords: []float64{float64(i % 20), float64(i / 20)}}); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewCountScratch()
	p := geom.Point{ID: 1000, Coords: []float64{7.5, 7.5}}
	ix.NeighborCountScratch(sc, p, 4) // warm the buffers
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := ix.NeighborCountScratch(sc, p, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("NeighborCountScratch allocates %v per run, want 0", allocs)
	}
}

// TestRingCellsScratchOrder pins that the scratch odometer visits the exact
// cell sequence of RingCells, including overflow skipping at the int64 rim.
func TestRingCellsScratchOrder(t *testing.T) {
	const minI = -9223372036854775808
	cases := [][]int64{
		{0, 0},
		{5, -3},
		{minI + 1, 4},
		{9223372036854775807, 9223372036854775806},
		{1, 2, 3},
	}
	for _, center := range cases {
		for radius := 0; radius <= 3; radius++ {
			var want [][]int64
			RingCells(center, radius, func(c []int64) {
				want = append(want, append([]int64(nil), c...))
			})
			sc := NewCountScratch()
			sc.grow(len(center))
			copy(sc.center, center)
			var got [][]int64
			sc.ringCellsSc(radius, func(c []int64) {
				got = append(got, append([]int64(nil), c...))
			})
			if len(got) != len(want) {
				t.Fatalf("center=%v radius=%d: %d cells, want %d", center, radius, len(got), len(want))
			}
			for i := range got {
				for d := range got[i] {
					if got[i][d] != want[i][d] {
						t.Fatalf("center=%v radius=%d cell %d: got %v, want %v",
							center, radius, i, got[i], want[i])
					}
				}
			}
		}
	}
}

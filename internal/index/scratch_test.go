package index

import (
	"math"
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

// ringCells is the reference ring enumeration the odometer replaced: it
// calls fn with the coordinates of every cell whose Chebyshev distance from
// center is exactly radius (for radius 0, the center itself), recursing
// dimension by dimension, so lexicographically. An offset that would land
// beyond MinInt64/MaxInt64 names a cell that cannot exist and is skipped
// rather than wrapped (wrapping would alias a far-away cell and corrupt
// neighbor counts). The slice passed to fn is reused.
func ringCells(center []int64, radius int, fn func(cell []int64)) {
	if radius == 0 {
		fn(center)
		return
	}
	cur := make([]int64, len(center))
	var rec func(dim int, onSurface bool)
	rec = func(dim int, onSurface bool) {
		if dim == len(center) {
			if onSurface {
				fn(cur)
			}
			return
		}
		v := center[dim]
		for off := -radius; off <= radius; off++ {
			if off < 0 && v < math.MinInt64+int64(-off) {
				continue // below the representable cell space
			}
			if off > 0 && v > math.MaxInt64-int64(off) {
				continue // above the representable cell space
			}
			cur[dim] = v + int64(off)
			rec(dim+1, onSurface || off == -radius || off == radius)
		}
	}
	rec(0, false)
}

// TestRingCellsScratchOrder pins that the scratch odometer visits the exact
// cell sequence of the recursive reference, including overflow skipping at
// the int64 rim.
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
			ringCells(center, radius, func(c []int64) {
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

// TestNeighborsOwnedScratchMatchesCells holds the in-place owned walk to
// NeighborsInCells over the owned cells listed in ring order: the same
// count and the same neighbors in the same sequence, for ownership
// predicates that keep every cell, none, and a checkerboard of blocks.
func TestNeighborsOwnedScratchMatchesCells(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		const r = 1.5
		pts := randPoints(500, dim, 8, 31+int64(dim))
		ix, err := New(Config{Dim: dim, R: r, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := ix.InsertTag(p, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		owners := map[string]func(c []int64) bool{
			"all":  func([]int64) bool { return true },
			"none": func([]int64) bool { return false },
			"checkerboard": func(c []int64) bool {
				s := int64(0)
				for _, v := range c {
					s += v >> 1
				}
				return s&1 == 0
			},
		}
		sc, walk := NewCountScratch(), NewCountScratch()
		for name, owns := range owners {
			for _, p := range pts[:60] {
				var cells [][]int64
				walk.WalkNeighborhood(ix.CellCoords(p), ix.l2, func(c []int64) {
					if owns(c) {
						cells = append(cells, append([]int64(nil), c...))
					}
				})
				var want, got []uint64
				nWant, err := ix.NeighborsInCells(sc, p, cells, 0, func(tag uint32) { want = append(want, pts[tag].ID) })
				if err != nil {
					t.Fatal(err)
				}
				nGot, err := ix.Neighbors(sc, p, owns, 0, func(tag uint32) { got = append(got, pts[tag].ID) })
				if err != nil {
					t.Fatal(err)
				}
				if nGot != nWant || len(got) != len(want) {
					t.Fatalf("dim %d %s: owned walk counted %d (%d visits), cell list %d (%d visits)", dim, name, nGot, len(got), nWant, len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("dim %d %s: visit %d is %d, cell list visits %d", dim, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNeighborhoodWalksAllocateNothing pins the serving tiers' walks at
// zero allocations: the bare neighbourhood walk, the owned-cell neighbor
// visit and the cell-list count, each on a warm scratch.
func TestNeighborhoodWalksAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
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
	center := ix.CellCoords(p)
	cells := [][]int64{center, {center[0] + 2, center[1]}}
	owns := func(c []int64) bool { return c[0]&1 == 0 }
	n := 0
	count := func(uint32) { n++ }
	for name, run := range map[string]func(){
		"WalkNeighborhood":      func() { sc.WalkNeighborhood(center, ix.l2, func([]int64) { n++ }) },
		"NeighborsOwnedScratch": func() { ix.Neighbors(sc, p, owns, 0, count) },
		"NeighborsInCells":      func() { ix.NeighborsInCells(sc, p, cells, 0, count) },
	} {
		run() // warm the scratch
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, allocs)
		}
	}
}

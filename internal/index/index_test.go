package index

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dod/internal/errs"
	"dod/internal/geom"
)

func randPoints(n, dim int, scale float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		coords := make([]float64, dim)
		for j := range coords {
			coords[j] = rng.Float64() * scale
		}
		pts[i] = geom.Point{ID: uint64(i), Coords: coords}
	}
	return pts
}

// cellKey is a canonical map key for a cell's integer coordinates (the live
// cell map is keyed by a seeded 64-bit hash instead).
type cellKey string

func key(c []int64) cellKey {
	buf := make([]byte, 0, len(c)*8)
	for _, v := range c {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return cellKey(buf)
}

// bruteCount is the reference neighbor count: points with a different ID
// within distance r.
func bruteCount(p geom.Point, pool []geom.Point, r float64) int {
	n := 0
	for _, q := range pool {
		if q.ID != p.ID && geom.WithinDist(p, q, r) {
			n++
		}
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0, R: 1}); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := New(Config{Dim: 2, R: 0}); err == nil {
		t.Error("r 0 accepted")
	}
	if _, err := New(Config{Dim: 2, R: -1}); err == nil {
		t.Error("negative r accepted")
	}
	ix, err := New(Config{Dim: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.shards) != DefaultShards {
		t.Errorf("default shards = %d, want %d", len(ix.shards), DefaultShards)
	}
}

func TestNeighborCountMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		pts := randPoints(500, dim, 10, int64(dim))
		const r = 1.5
		ix, err := New(Config{Dim: dim, R: r, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pts {
			want := bruteCount(p, pts, r)
			// A limit above any possible count makes the index count exact.
			got, err := ix.NeighborCount(p, len(pts))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("dim %d: NeighborCount(%v) = %d, want %d", dim, p, got, want)
			}
		}
	}
}

func TestNeighborCountEarlyTermination(t *testing.T) {
	pts := randPoints(300, 2, 5, 7)
	const r = 2.0
	ix, err := New(Config{Dim: 2, R: r})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	const k = 4
	for _, p := range pts {
		want := bruteCount(p, pts, r)
		if want > k {
			want = k
		}
		got, err := ix.NeighborCount(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("NeighborCount(%v, %d) = %d, want %d", p, k, got, want)
		}
	}
}

// TestNeighborsEnumeratesExactly holds the neighbor walk to the definition:
// it reports exactly the points brute force finds within r, each once, in
// ring order (ring by ring, lexicographic within a ring).
func TestNeighborsEnumeratesExactly(t *testing.T) {
	pts := randPoints(400, 2, 8, 11)
	const r = 1.0
	ix, err := New(Config{Dim: 2, R: r})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := ix.InsertTag(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewCountScratch()
	for _, p := range pts[:50] {
		// cellRank numbers the cells of p's neighborhood in ring order.
		cellRank := make(map[cellKey]int)
		NewCountScratch().WalkNeighborhood(ix.CellCoords(p), ix.l2, func(c []int64) { cellRank[key(c)] = len(cellRank) })
		seen := make(map[uint64]bool)
		last := -1
		if _, err := ix.Neighbors(sc, p, nil, 0, func(tag uint32) {
			q := pts[tag]
			if seen[q.ID] {
				t.Fatalf("NeighborsScratch(%v): point %d reported twice", p, q.ID)
			}
			seen[q.ID] = true
			rank, ok := cellRank[key(ix.CellCoords(q))]
			if !ok || rank < last {
				t.Fatalf("NeighborsScratch(%v): point %d visited out of ring order (cell rank %d after %d)", p, q.ID, rank, last)
			}
			last = rank
		}); err != nil {
			t.Fatal(err)
		}
		for _, q := range pts {
			want := q.ID != p.ID && geom.WithinDist(p, q, r)
			if seen[q.ID] != want {
				t.Fatalf("NeighborsScratch(%v): point %d reported %v, want %v", p, q.ID, seen[q.ID], want)
			}
		}
	}
}

func TestRemove(t *testing.T) {
	pts := randPoints(100, 2, 3, 3)
	ix, err := New(Config{Dim: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
	}
	for _, p := range pts {
		if !ix.Remove(p) {
			t.Fatalf("Remove(%v) = false on resident point", p)
		}
		if ix.Remove(p) {
			t.Fatalf("Remove(%v) = true after removal", p)
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len after removing all = %d, want 0", ix.Len())
	}
	occ := ix.ShardOccupancy()
	for i, n := range occ {
		if n != 0 {
			t.Fatalf("shard %d occupancy = %d after removing all", i, n)
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	ix, err := New(Config{Dim: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := geom.Point{ID: 1, Coords: []float64{1, 2, 3}}
	if err := ix.Insert(bad); err == nil {
		t.Error("Insert accepted mismatched dimension")
	}
	if _, err := ix.NeighborCount(bad, 1); err == nil {
		t.Error("NeighborCount accepted mismatched dimension")
	}
	if _, err := ix.Neighbors(NewCountScratch(), bad, nil, 0, func(uint32) {}); err == nil {
		t.Error("NeighborsScratch accepted mismatched dimension")
	}
	if _, err := ix.NeighborsInCells(NewCountScratch(), bad, nil, 0, nil); err == nil {
		t.Error("NeighborsInCells accepted mismatched dimension")
	}
	if ix.Remove(bad) {
		t.Error("Remove found a mismatched-dimension point")
	}
	good := geom.Point{ID: 1, Coords: []float64{1, 2}}
	if _, err := ix.NeighborCount(good, 0); err == nil {
		t.Error("NeighborCount accepted limit 0")
	}
}

// TestNonFinitePointRejected: a NaN or ±Inf coordinate names no cell, so
// every insert and query refuses it as a parameter error and the index
// stays as it was.
func TestNonFinitePointRejected(t *testing.T) {
	ix, err := New(Config{Dim: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(geom.Point{ID: 1, Coords: []float64{0, 0}}); err != nil {
		t.Fatal(err)
	}
	sc := NewCountScratch()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, bad := range []geom.Point{{ID: 9, Coords: []float64{v, 0}}, {ID: 9, Coords: []float64{0, v}}} {
			calls := map[string]error{"Insert": ix.Insert(bad)}
			_, calls["NeighborCount"] = ix.NeighborCount(bad, 3)
			_, calls["NeighborCountScratch"] = ix.NeighborCountScratch(sc, bad, 3)
			_, calls["NeighborsScratch"] = ix.Neighbors(sc, bad, nil, 0, func(uint32) {})
			_, calls["NeighborsInCells"] = ix.NeighborsInCells(NewCountScratch(), bad, [][]int64{{0, 0}}, 0, nil)
			for name, err := range calls {
				if !errors.Is(err, errs.ErrBadParams) {
					t.Errorf("%s(%v): error %v, want ErrBadParams", name, bad.Coords, err)
				}
			}
			if ix.Remove(bad) {
				t.Errorf("Remove(%v) found a point", bad.Coords)
			}
		}
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after refused inserts, want 1", ix.Len())
	}
}

func TestNegativeCoordinates(t *testing.T) {
	// Cell coords use floor division, so negative space must work too.
	pts := randPoints(300, 2, 6, 19)
	for i := range pts {
		pts[i].Coords[0] -= 3
		pts[i].Coords[1] -= 3
	}
	const r = 1.2
	ix, err := New(Config{Dim: 2, R: r})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts {
		want := bruteCount(p, pts, r)
		got, err := ix.NeighborCount(p, len(pts))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("NeighborCount(%v) = %d, want %d", p, got, want)
		}
	}
}

// TestConcurrentHammer exercises concurrent insert, remove, and query under
// the race detector: each goroutine owns a disjoint ID range and cycles its
// points in and out of the index while counting neighbors.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers   = 8
		perWorker = 200
	)
	ix, err := New(Config{Dim: 2, R: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			own := make([]geom.Point, perWorker)
			for i := range own {
				own[i] = geom.Point{
					ID:     uint64(w*perWorker + i),
					Coords: []float64{rng.Float64() * 10, rng.Float64() * 10},
				}
			}
			for round := 0; round < 3; round++ {
				for _, p := range own {
					if err := ix.Insert(p); err != nil {
						t.Error(err)
						return
					}
				}
				for _, p := range own {
					if _, err := ix.NeighborCount(p, 5); err != nil {
						t.Error(err)
						return
					}
				}
				ix.Len()
				ix.ShardOccupancy()
				for _, p := range own {
					if !ix.Remove(p) {
						t.Errorf("lost point %d", p.ID)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 0 {
		t.Fatalf("Len after hammer = %d, want 0", ix.Len())
	}
}

// TestRingCellsInt64Extremes exercises the ring odometer with cell
// coordinates at the edges of the int64 space. Offsets that would leave
// the representable range must be skipped, not wrapped: a wrapped
// coordinate aliases a cell at the opposite end of space and would leak
// phantom neighbors into counts.
func TestRingCellsInt64Extremes(t *testing.T) {
	const maxI64, minI64 = int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1
	cases := []struct {
		name   string
		center []int64
		radius int
	}{
		{"max-corner", []int64{maxI64, maxI64}, 3},
		{"min-corner", []int64{minI64, minI64}, 3},
		{"mixed-corner", []int64{maxI64, minI64}, 2},
		{"near-max", []int64{maxI64 - 1, 0}, 3},
		{"near-min", []int64{minI64 + 2, minI64}, 3},
		{"1d-max", []int64{maxI64}, 2},
		{"3d-extremes", []int64{maxI64, minI64, maxI64 - 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := make(map[string]bool)
			sc := NewCountScratch()
			sc.grow(len(tc.center))
			copy(sc.center, tc.center)
			for radius := 0; radius <= tc.radius; radius++ {
				sc.ringCellsSc(radius, func(cell []int64) {
					for d := range cell {
						// Every emitted coordinate must be within Chebyshev
						// distance radius of the center without wrapping.
						if got := ChebDist(cell, tc.center); got > uint64(radius) {
							t.Fatalf("radius %d emitted cell %v at Chebyshev distance %d", radius, cell, got)
						}
						_ = d
					}
					k := string(key(cell))
					if seen[k] {
						t.Fatalf("radius %d emitted duplicate cell %v (wrapped coordinate aliases another cell)", radius, cell)
					}
					seen[k] = true
				})
			}
			// The enumerated block must be the intersection of the full
			// (2r+1)^d block with the representable coordinate space.
			want := 1
			for _, c := range tc.center {
				lo, hi := tc.radius, tc.radius
				if c < minI64+int64(tc.radius) {
					lo = int(c - minI64)
				}
				if c > maxI64-int64(tc.radius) {
					hi = int(maxI64 - c)
				}
				want *= lo + hi + 1
			}
			if len(seen) != want {
				t.Fatalf("enumerated %d distinct cells, want %d", len(seen), want)
			}
		})
	}
}

// TestNeighborsInCellsPartition splits a point's neighborhood cells into
// arbitrary groups and checks that the per-group counts sum to exactly
// what brute force over the whole index reports — the invariant the sharded
// serving tier's boundary-support protocol rests on.
func TestNeighborsInCellsPartition(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		const r = 1.5
		pts := randPoints(600, dim, 8, 77+int64(dim))
		ix, err := New(Config{Dim: dim, R: r, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := ix.InsertTag(p, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		for trial := 0; trial < 50; trial++ {
			q := pts[rng.Intn(len(pts))]
			// Collect the full neighborhood and deal cells into 3 groups.
			groups := make([][][]int64, 3)
			sc := NewCountScratch()
			sc.WalkNeighborhood(ix.CellCoords(q), ix.l2, func(cell []int64) {
				g := rng.Intn(3)
				groups[g] = append(groups[g], append([]int64(nil), cell...))
			})
			total := 0
			var enumerated []uint64
			for _, cells := range groups {
				n, err := ix.NeighborsInCells(sc, q, cells, 0, func(tag uint32) {
					enumerated = append(enumerated, pts[tag].ID)
				})
				if err != nil {
					t.Fatal(err)
				}
				total += n
			}
			want := bruteCount(q, pts, r)
			if total != want {
				t.Fatalf("dim %d: partitioned count %d != brute-force %d", dim, total, want)
			}
			if len(enumerated) != want {
				t.Fatalf("dim %d: enumerated %d neighbors, want %d", dim, len(enumerated), want)
			}
			// Early-terminated pure counting caps at the limit.
			if want > 1 {
				capped := 0
				for _, cells := range groups {
					n, err := ix.NeighborsInCells(sc, q, cells, want-1, nil)
					if err != nil {
						t.Fatal(err)
					}
					capped += n
				}
				if capped < want-1 {
					t.Fatalf("dim %d: capped count %d below limit %d", dim, capped, want-1)
				}
			}
		}
	}
}

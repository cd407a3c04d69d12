package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCellIndexMatchesBruteForce holds CellIndex.Within to a WithinDist scan
// of every point. Coordinates sit on a lattice (pitches 0.5 and 0.1, the
// second not exact in binary), so many pairs are exactly dist apart and on
// cell edges; one dimension has zero extent in every other case; and dist
// is the cell width, a multiple of it, and no multiple of it.
func TestCellIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + int(seed)%4
		pitch := []float64{0.5, 0.1}[seed%2]
		flat := -1
		if seed%3 != 0 {
			flat = rng.Intn(d)
		}
		pts := make([]Point, 60+rng.Intn(60))
		for i := range pts {
			c := make([]float64, d)
			for j := range c {
				if j != flat {
					c[j] = pitch * float64(rng.Intn(12))
				}
			}
			pts[i] = Point{ID: uint64(i), Coords: c}
		}
		for _, width := range []float64{pitch, 2 * pitch, 3 * pitch} {
			ix := NewCellIndex(PointSetOf(pts), width)
			od := NewOdometer(d)
			for _, dist := range []float64{width, 2 * width, width / 0.3} {
				t.Run(fmt.Sprintf("seed=%d/width=%g/dist=%g", seed, width, dist), func(t *testing.T) {
					for _, p := range pts {
						seen := make([]bool, len(pts))
						ix.Within(&od, p.Coords, dist, func(j int) {
							if seen[j] {
								t.Fatalf("point %d reported twice around %v", j, p.Coords)
							}
							seen[j] = true
						})
						for j, q := range pts {
							if want := WithinDist(p, q, dist); seen[j] != want {
								t.Fatalf("around %v: point %v reported %v, WithinDist says %v", p.Coords, q.Coords, seen[j], want)
							}
						}
					}
				})
			}
		}
	}
}

// TestCellIndexWithinAcrossRoundedEdge is the first input
// FuzzNeighbourIndexes found. With the grid anchored at
// -1.4999999999999996 and cells 0.75 wide, (3 - min)/0.75 rounds up to
// exactly 6 while (1.5 - min)/0.75 stays below 4, so the partner at
// exactly dist = 1.5 from 3 sits three cells away, one past the
// ⌈dist/width⌉ = 2 ring.
func TestCellIndexWithinAcrossRoundedEdge(t *testing.T) {
	pts := []Point{
		{ID: 1, Coords: []float64{-1.4999999999999996}},
		{ID: 2, Coords: []float64{1.5}},
		{ID: 3, Coords: []float64{3}},
	}
	ix := NewCellIndex(PointSetOf(pts), 0.75)
	od := NewOdometer(1)
	var got []int
	ix.Within(&od, pts[2].Coords, 1.5, func(j int) { got = append(got, j) })
	if want := []int{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("Within(3, 1.5) = %v, want %v", got, want)
	}
}

// TestCellIndexRowWrapsPastMaxInt: on a 3 × (2⁶²+1) grid of unit cells
// the ordinal product overflows, so the index is sparse, and the row at
// first index 1 runs from ordinal 2⁶²+1 past math.MaxInt: its last cell,
// holding the point at (1, 2⁶²), wraps to math.MinInt+1. Around that
// point the row walks split the row where it wraps and find what the
// per-cell walk finds.
func TestCellIndexRowWrapsPastMaxInt(t *testing.T) {
	top := math.Ldexp(1, 62)
	pts := []Point{
		{ID: 1, Coords: []float64{0, 0}},
		{ID: 2, Coords: []float64{1, top}},
		{ID: 3, Coords: []float64{1, top - 1024}},
		{ID: 4, Coords: []float64{2, top}},
		{ID: 5, Coords: []float64{0, top}},
	}
	ix := NewCellIndex(PointSetOf(pts), 1)
	if ix.ords == nil {
		t.Fatalf("grid %v: want the sparse layout", ix.Grid.Dims)
	}
	od := NewOdometer(2)
	q := pts[1].Coords
	// From radius 2 on, the row's first cell's ordinal is at most
	// math.MaxInt and its last one's wraps.
	for radius, want := range []int{1, 3, 3, 3} {
		walked := 0
		ix.Grid.Block(&od, q, radius, func(o int) { walked += len(ix.Members(o)) })
		if got := ix.BlockCount(&od, q, radius); got != walked || got != want {
			t.Errorf("BlockCount(radius %d) = %d, per-cell walk %d, want %d", radius, got, walked, want)
		}
	}
	if got, want := ix.AppendRing(nil, &od, q, 0, 3), ringRef0(ix, &od, q, 3); !slices.Equal(got, want) || len(got) != 2 {
		t.Errorf("AppendRing = %v, per-cell walk %v, want two points", got, want)
	}
}

// ringRef0 is the per-cell walk of the cells within Chebyshev distance
// outer of q's cell other than that cell.
func ringRef0(ix *CellIndex, od *Odometer, q []float64, outer int) []int32 {
	centre := ix.Grid.CellOrdinalCoords(q)
	var ring []int32
	ix.Grid.Block(od, q, outer, func(o int) {
		if o != centre {
			ring = append(ring, ix.Members(o)...)
		}
	})
	return ring
}

package geom

import (
	"fmt"
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

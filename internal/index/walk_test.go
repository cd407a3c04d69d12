package index

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dod/internal/geom"
)

// boundaryPairs are pairs within r of each other (geom.WithinDist holds)
// whose resident sits a few ulps outside the rounded box of its own cell,
// so a prune that measured the unwidened box skipped that cell.
var boundaryPairs = []struct {
	name string
	r    float64
	p, q []float64
}{
	{"d=3", 0.0024449999406660635,
		[]float64{0.3190264305041504, -0.06705201526082812, 0.21917955576354475},
		[]float64{0.3190264305041504, -0.06705201526082812, 0.2216245557042108}},
	{"d=4", 3113.9821640408554,
		[]float64{-251454.05974629908, 239776.62663114577, 254568.04191034, -116774.33115153211},
		[]float64{-248340.07758225824, 239776.62663114577, 254568.04191034, -116774.33115153211}},
}

// TestRingPruneKeepsBoundaryNeighbours holds every walk form to WithinDist
// on the boundary pairs, from either end: the ring walk over every cell and
// under an owner that keeps every cell, the cell-list walk over the whole
// neighbourhood, and the capped count.
func TestRingPruneKeepsBoundaryNeighbours(t *testing.T) {
	for _, tc := range boundaryPairs {
		pts := []geom.Point{{ID: 1, Coords: tc.p}, {ID: 2, Coords: tc.q}}
		if !geom.WithinDist(pts[0], pts[1], tc.r) {
			t.Fatalf("%s: fixture pair is not within r", tc.name)
		}
		ix, err := New(Config{Dim: len(tc.p), R: tc.r})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := ix.InsertTag(p, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		sc := NewCountScratch()
		all := func([]int64) bool { return true }
		for i, p := range pts {
			var cells [][]int64
			NewCountScratch().WalkNeighborhood(ix.CellCoords(p), ix.l2, func(c []int64) {
				cells = append(cells, append([]int64(nil), c...))
			})
			visits := 0
			visit := func(tag uint32) {
				if tag != uint32(1-i) {
					t.Errorf("%s: walk from %d handed back tag %d", tc.name, p.ID, tag)
				}
				visits++
			}
			forms := []struct {
				name string
				walk func() (int, error)
				fn   bool // the form hands tags to visit
			}{
				{"Neighbors", func() (int, error) { return ix.Neighbors(sc, p, nil, 0, visit) }, true},
				{"Neighbors owned", func() (int, error) { return ix.Neighbors(sc, p, all, 0, visit) }, true},
				{"NeighborsInCells", func() (int, error) { return ix.NeighborsInCells(sc, p, cells, 0, visit) }, true},
				{"NeighborCountScratch", func() (int, error) { return ix.NeighborCountScratch(sc, p, 2) }, false},
			}
			for _, f := range forms {
				visits = 0
				n, err := f.walk()
				if err != nil {
					t.Fatal(err)
				}
				if n != 1 || f.fn && visits != 1 {
					t.Errorf("%s: %s from %d counted %d (%d visits), want the one neighbour", tc.name, f.name, p.ID, n, visits)
				}
			}
		}
	}
}

// walkBytes hands out the fuzz input, then bytes from a PRNG seeded by it,
// so a short input still builds a full scene.
type walkBytes struct {
	data []byte
	rng  *rand.Rand
}

func (b *walkBytes) next() byte {
	if len(b.data) == 0 {
		return byte(b.rng.Intn(256))
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v
}

// nudge moves v by up to two ulps, either way, as the next byte says.
func (b *walkBytes) nudge(v float64) float64 {
	steps := int(b.next()%5) - 2
	for ; steps > 0; steps-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; steps < 0; steps++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// walkScene decodes fuzz bytes into an index and the points to query it
// from, aimed at the ring prune's edges: d from 1 to 5; r of any magnitude
// from 2⁻¹² to 2¹²; points a few ulps either side of a cell edge k·side
// (computed as the index computes it), partners of earlier points at r ± a
// few ulps along one axis, coincident points, and all of it around an
// origin cell that may be negative or 2⁴⁰ cells out. Every point but the
// last is inserted, tagged with its index; the last queries from outside.
func walkScene(t *testing.T, data []byte) (*Index, []geom.Point) {
	h := fnv.New64a()
	h.Write(data)
	b := &walkBytes{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}

	// A walk costs about (2⌈2√d⌉+1)^d cells: d = 4 and 5 draw one input in
	// sixteen each, so the cheap shapes run most often.
	dim := []int{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 3, 4, 5}[b.next()%16]
	r := math.Ldexp(1+float64(b.next())/256, int(b.next()%25)-12)
	ix, err := New(Config{Dim: dim, R: r, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var origin float64
	switch b.next() % 4 {
	case 1:
		origin = -float64(1 + b.next()%64)
	case 2:
		origin = math.Ldexp(1, 20+int(b.next()%21))
	case 3:
		origin = -math.Ldexp(1, 20+int(b.next()%21))
	}
	n := 2 + int(b.next()%30)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := make([]float64, dim)
		switch m := b.next() % 8; {
		case i == 0 || m < 3: // on a cell edge, ± a few ulps
			for a := range c {
				k := origin + float64(int(b.next()%8)-4)
				c[a] = b.nudge(k * ix.side)
			}
		case m < 6: // r ± a few ulps from an earlier point, along one axis
			copy(c, pts[int(b.next())%i].Coords)
			a := int(b.next()) % dim
			if b.next()%2 == 0 {
				c[a] = b.nudge(c[a] + r)
			} else {
				c[a] = b.nudge(c[a] - r)
			}
		case m == 6: // coincident with an earlier point
			copy(c, pts[int(b.next())%i].Coords)
		default: // anywhere in the origin's few cells
			for a := range c {
				c[a] = (origin + 8*float64(b.next())/256 - 4) * ix.side
			}
		}
		pts[i] = geom.Point{ID: uint64(i + 1), Coords: c}
	}
	for i, p := range pts[:n-1] {
		if err := ix.InsertTag(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix, pts
}

// ringBefore orders cells as the ring walk visits them around center: by
// Chebyshev ring, then lexicographically.
func ringBefore(center, a, b []int64) int {
	if ra, rb := ChebDist(center, a), ChebDist(center, b); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	return slices.Compare(a, b)
}

// checkerboard owns alternate blocks of two cells along the coordinate sum.
func checkerboard(c []int64) bool {
	s := int64(0)
	for _, v := range c {
		s += v >> 1
	}
	return s&1 == 0
}

// FuzzNeighborWalks holds every walk form to a brute-force oracle: every
// resident whose cell lies within Chebyshev l2 of the query's, accepted
// whole within distance 1 and by WithinDist beyond, in ring order and
// insertion order within a cell. The oracle stops at l2 rather than at the
// definition because the ring cutoff itself is not yet exact where 2√d is
// an integer.
func FuzzNeighborWalks(f *testing.F) {
	for d := byte(0); d < 16; d++ {
		f.Add([]byte{d, 128, 12, 0, 9})
		f.Add([]byte{d, 7, 20, 3, 13, 1, 0, 0, 0, 1, 0, 0, 1, 2})
	}
	f.Fuzz(checkWalks)
}

// checkWalks is FuzzNeighborWalks' body: one scene, every walk form from
// every point.
func checkWalks(t *testing.T, data []byte) {
	ix, pts := walkScene(t, data)
	residents := pts[:len(pts)-1]
	cellOf := make([][]int64, len(residents))
	for i, q := range residents {
		cellOf[i] = ix.CellCoords(q)
	}
	sc := NewCountScratch()
	queries := pts
	switch ix.dim {
	case 4: // 9⁴ cells per walk
		queries = pts[max(0, len(pts)-4):]
	case 5: // 11⁵ cells per walk
		queries = pts[len(pts)-1:]
	}
	for _, p := range queries {
		center := ix.CellCoords(p)
		// want holds the oracle's neighbours of p, as tags, in ring
		// order; owned the subset in checkerboard cells, and cells the
		// occupied checkerboard cells listed in ring order.
		var want []uint32
		for i, q := range residents {
			d := ChebDist(center, cellOf[i])
			if q.ID != p.ID && d <= uint64(ix.l2) && (d <= 1 || geom.WithinDist(p, q, ix.r)) {
				want = append(want, uint32(i))
			}
		}
		slices.SortStableFunc(want, func(a, b uint32) int { return ringBefore(center, cellOf[a], cellOf[b]) })
		var owned, notOwned []uint32
		var cells [][]int64
		for _, tag := range want {
			if !checkerboard(cellOf[tag]) {
				notOwned = append(notOwned, tag)
				continue
			}
			owned = append(owned, tag)
			if k := len(cells); k == 0 || !slices.Equal(cells[k-1], cellOf[tag]) {
				cells = append(cells, cellOf[tag])
			}
		}

		walk := func(name string, want []uint32, run func(fn func(uint32)) (int, error)) {
			t.Helper()
			var got []uint32
			n, err := run(func(tag uint32) { got = append(got, tag) })
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) || !slices.Equal(got, want) {
				t.Fatalf("d=%d r=%v from %v: %s counted %d, visited %v, want %v", ix.dim, ix.r, p.Coords, name, n, got, want)
			}
		}
		walk("Neighbors", want, func(fn func(uint32)) (int, error) { return ix.Neighbors(sc, p, nil, 0, fn) })
		walk("Neighbors(checkerboard)", owned, func(fn func(uint32)) (int, error) {
			return ix.Neighbors(sc, p, checkerboard, 0, fn)
		})
		walk("Neighbors(complement)", notOwned, func(fn func(uint32)) (int, error) {
			return ix.Neighbors(sc, p, func(c []int64) bool { return !checkerboard(c) }, 0, fn)
		})
		walk("NeighborsInCells", owned, func(fn func(uint32)) (int, error) {
			return ix.NeighborsInCells(sc, p, cells, 0, fn)
		})
		for _, limit := range []int{1, 2, len(owned), len(owned) + 1} {
			if limit < 1 {
				continue
			}
			walk("NeighborsInCells(limit)", owned[:min(limit, len(owned))], func(fn func(uint32)) (int, error) {
				return ix.NeighborsInCells(sc, p, cells, limit, fn)
			})
		}
		for _, limit := range []int{1, 2, len(want), len(want) + 1} {
			if limit < 1 {
				continue
			}
			n, err := ix.NeighborCountScratch(sc, p, limit)
			if err != nil {
				t.Fatal(err)
			}
			if n != min(limit, len(want)) {
				t.Fatalf("d=%d r=%v from %v: NeighborCountScratch(%d) = %d, want %d", ix.dim, ix.r, p.Coords, limit, n, min(limit, len(want)))
			}
		}
	}
}

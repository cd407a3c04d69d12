package geom

import (
	"cmp"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// mapCellIndex is the map-based reference layout the CSR CellIndex
// replaced: point indices bucketed into a map keyed by cell ordinal, block
// counts walked with Neighborhood.
type mapCellIndex struct {
	grid  *Grid
	cells map[int][]int32
}

func buildMapCellIndex(set *PointSet, width float64) *mapCellIndex {
	ix := &mapCellIndex{grid: NewGridExactWidth(set.Bounds(), width), cells: make(map[int][]int32)}
	for i := 0; i < set.Len(); i++ {
		ord := ix.grid.CellOrdinalCoords(set.CoordsAt(i))
		ix.cells[ord] = append(ix.cells[ord], int32(i))
	}
	return ix
}

// blockCount counts the points in the cells within Chebyshev distance
// radius of the cell holding q.
func (ix *mapCellIndex) blockCount(q []float64, radius int) int {
	total := 0
	ix.grid.Neighborhood(cellIdx(ix.grid, q), radius, func(o int) {
		total += len(ix.cells[o])
	})
	return total
}

// cellIdx returns the per-dimension indices of g's cell holding q, each
// computed and clamped on its own. Unlike Unflatten of the ordinal, it
// holds on grids whose ordinals wrap.
func cellIdx(g *Grid, q []float64) []int {
	idx := make([]int, len(q))
	for k, v := range q {
		idx[k] = min(max(int((v-g.Domain.Min[k])/g.CellWidth(k)), 0), g.Dims[k]-1)
	}
	return idx
}

// ringRef is the ring builder Cell-Based-L2 used before block walks went
// by rows, kept as the reference for the row walk: the L1 block's ordinals
// listed by one Block walk, then the members of every L2-block cell that a
// linear search does not find among them, in row-major order.
func ringRef(ix *CellIndex, od *Odometer, q []float64, l2 int) []int32 {
	var l1Ords []int
	ix.Grid.Block(od, q, 1, func(o int) { l1Ords = append(l1Ords, o) })
	var ring []int32
	ix.Grid.Block(od, q, l2, func(o int) {
		for _, l1 := range l1Ords {
			if o == l1 {
				return
			}
		}
		ring = append(ring, ix.Members(o)...)
	})
	return ring
}

func randomPointSet(rng *rand.Rand) *PointSet {
	dim := 1 + rng.Intn(4)
	n := 1 + rng.Intn(150)
	set := NewPointSet(dim, n)
	coords := make([]float64, dim)
	for i := 0; i < n; i++ {
		for k := range coords {
			coords[k] = rng.NormFloat64() * 15
		}
		set.AppendRaw(uint64(i), coords)
	}
	return set
}

// TestCellIndexMatchesMapReference: on random point sets and Cell-Based
// widths r/(2√d) (small r forces the sparse layout, large r the dense
// counting sort), the CSR index reports the map reference's members for
// every occupied cell and a sample of empty ones, its block
// count at radius 1 and ⌈2√d⌉, the ring between them in ringRef's order,
// and its occupied cells in ascending ordinal order.
func TestCellIndexMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := randomPointSet(rng)
		// Radii spanning the dense/sparse split: ~1e-6 yields grids with
		// far more cells than maxDenseCells allows.
		r := []float64{1e-6, 0.1, 1, 5, 50}[rng.Intn(5)]
		width := r / (2 * math.Sqrt(float64(set.Dim)))
		csr := NewCellIndex(set, width)
		ref := buildMapCellIndex(set, width)

		for ord, want := range ref.cells {
			if got := csr.Members(ord); !slices.Equal(got, want) {
				t.Logf("seed %d: cell %d: got %v, want %v", seed, ord, got, want)
				return false
			}
		}
		// Empty cells must read as empty (dense grids only: wrapped sparse
		// ordinals admit no meaningful "random empty ordinal" probe).
		if nc := csr.Grid.NumCells(); nc > 0 && nc < 1<<20 {
			for trial := 0; trial < 10; trial++ {
				ord := rng.Intn(nc)
				if _, occupied := ref.cells[ord]; occupied {
					continue
				}
				if len(csr.Members(ord)) != 0 {
					t.Logf("seed %d: empty cell %d non-empty in CSR", seed, ord)
					return false
				}
			}
		}
		od := NewOdometer(set.Dim)
		l2 := int(math.Ceil(2 * math.Sqrt(float64(set.Dim))))
		for ord, members := range ref.cells {
			for _, radius := range []int{1, l2} {
				q := set.CoordsAt(int(members[0]))
				if got, want := csr.BlockCount(&od, q, radius), ref.blockCount(q, radius); got != want {
					t.Logf("seed %d: BlockCount(cell %d, %d) = %d, want %d", seed, ord, radius, got, want)
					return false
				}
			}
			q := set.CoordsAt(int(members[0]))
			if got, want := csr.AppendRing(nil, &od, q, 1, l2), ringRef(csr, &od, q, l2); !slices.Equal(got, want) {
				t.Logf("seed %d: AppendRing(cell %d) = %v, want %v", seed, ord, got, want)
				return false
			}
		}
		var ords []int
		csr.Cells(func(ord int, lo, hi int32) {
			ords = append(ords, ord)
			if !slices.Equal(csr.Order[lo:hi], ref.cells[ord]) {
				t.Logf("seed %d: Cells gives cell %d members %v, want %v", seed, ord, csr.Order[lo:hi], ref.cells[ord])
				ords = nil
			}
		})
		if len(ords) != len(ref.cells) || !sort.IntsAreSorted(ords) {
			t.Logf("seed %d: Cells visits %v, want the %d occupied ordinals ascending", seed, ords, len(ref.cells))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sceneBytes hands out the fuzz input, then bytes from a PRNG seeded by it,
// so a short input still builds a full scene.
type sceneBytes struct {
	data []byte
	rng  *rand.Rand
}

func (b *sceneBytes) next() byte {
	if len(b.data) == 0 {
		return byte(b.rng.Intn(256))
	}
	v := b.data[0]
	b.data = b.data[1:]
	return v
}

// nudge moves v by up to two ulps, either way, as the next byte says.
func (b *sceneBytes) nudge(v float64) float64 {
	steps := int(b.next()%5) - 2
	for ; steps > 0; steps-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; steps < 0; steps++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// neighbourScene decodes fuzz bytes into a point set, a radius r and
// LOCI's α, aimed at the cell arithmetic's edges: d from 1 to 5; r from
// 2⁻¹² to 2¹²; points a few ulps either side of an edge of the α·r cells
// counted from an origin that may be negative or 2⁴⁰ cells out; partners
// of earlier points at r or α·r ± a few ulps along one axis; coincident
// points; a flat dimension; and now and then a repeated ID.
func neighbourScene(data []byte) (set *PointSet, r, alpha float64) {
	h := fnv.New64a()
	h.Write(data)
	b := &sceneBytes{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}

	dim := []int{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 3, 4, 5}[b.next()%16]
	r = math.Ldexp(1+float64(b.next())/256, int(b.next()%25)-12)
	alpha = []float64{1, 0.5, 1.0 / 3, 0.25, 0.3, 0.7}[b.next()%6]
	width := alpha * r
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
	set = NewPointSet(dim, n)
	c := make([]float64, dim)
	for i := 0; i < n; i++ {
		switch m := b.next() % 8; {
		case i == 0 || m < 3: // on a cell edge, ± a few ulps
			for a := range c {
				c[a] = b.nudge((origin + float64(b.next()%8)) * width)
			}
		case m < 6: // r or α·r ± a few ulps from an earlier point, along one axis
			copy(c, set.CoordsAt(int(b.next())%i))
			dist := []float64{r, width}[b.next()%2]
			if a := int(b.next()) % dim; b.next()%2 == 0 {
				c[a] = b.nudge(c[a] + dist)
			} else {
				c[a] = b.nudge(c[a] - dist)
			}
		case m == 6: // coincident with an earlier point
			copy(c, set.CoordsAt(int(b.next())%i))
		default: // anywhere in the origin's few cells
			for a := range c {
				c[a] = (origin + 8*float64(b.next())/256) * width
			}
		}
		id := uint64(i + 1)
		if i > 0 && b.next()%16 == 0 {
			id = set.IDs[int(b.next())%i]
		}
		set.AppendRaw(id, c)
	}
	if b.next()%3 == 0 {
		flat := int(b.next()) % dim
		for i := 0; i < n; i++ {
			set.Coords[i*dim+flat] = set.Coords[flat]
		}
	}
	return set, r, alpha
}

// FuzzNeighbourIndexes holds the batch neighbour indexes to brute-force
// scans and the CellIndex row walks to the per-cell walk on
// neighbourScene's inputs, the CellIndex in its dense and sparse layouts:
//   - CellIndex.Within at ring radius 1 (dist = width, as DBSCAN and
//     LOCI's α·r pass use it) and ⌈1/α⌉ (dist = r, LOCI's r pass): every
//     point with WithinDist, in row-major cell order and ascending within a
//     cell, as a per-cell walk of the box lists them;
//   - BlockCount on Cell-Based's r/(2√d) cells at radius 1 and ⌈2√d⌉:
//     every point whose cell lies within that Chebyshev distance, as many
//     as the per-cell walk counts;
//   - AppendRing between those radii: every point whose cell is in the
//     outer block but not the inner, in the order of the per-cell ring
//     builder ringRef;
//   - KDTree.CountWithin at every limit up to one past the true count;
//   - KDTree.Nearest at every k up to one past the number of other points:
//     the k smallest Dist2 values, bit for bit.
func FuzzNeighbourIndexes(f *testing.F) {
	for d := byte(0); d < 16; d++ {
		f.Add([]byte{d, 128, 12, 1, 0, 9})
		f.Add([]byte{d, 7, 20, 0, 3, 13, 1, 0, 0, 0, 1, 0, 0, 1, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, r, alpha := neighbourScene(data)
		checkNeighbourIndexes(t, set, r, alpha)
	})
}

func checkNeighbourIndexes(t *testing.T, set *PointSet, r, alpha float64) {
	d, n := set.Dim, set.Len()
	pts := set.Points()
	// A d = 5 block of radius ⌈2√5⌉ walks 11⁵ cells, so the high
	// dimensions query from a few points only.
	queries := n
	switch d {
	case 4:
		queries = min(n, 4)
	case 5:
		queries = 1
	}

	od := NewOdometer(d)
	l2 := int(math.Ceil(2 * math.Sqrt(float64(d))))
	// Each index is checked in the dense layout and, built with a dense cap
	// of zero, in the sparse one.
	for _, lay := range []struct {
		name     string
		maxDense int
	}{{"dense", maxDenseCells(n)}, {"sparse", 0}} {
		ix := newCellIndex(set, alpha*r, lay.maxDense)
		for i := 0; i < queries; i++ {
			q := set.CoordsAt(i)
			for _, dist := range []float64{alpha * r, r} {
				var got []int
				ix.Within(&od, q, dist, func(j int) { got = append(got, j) })
				var want []int
				for j := range pts {
					if WithinDist(pts[i], pts[j], dist) {
						want = append(want, j)
					}
				}
				cellOf := func(j int) []int { return cellIdx(ix.Grid, set.CoordsAt(j)) }
				slices.SortFunc(want, func(a, b int) int {
					return cmp.Or(slices.Compare(cellOf(a), cellOf(b)), cmp.Compare(a, b))
				})
				if !slices.Equal(got, want) {
					t.Fatalf("%s d=%d width=%v dist=%v from %v: Within gives %v, want %v", lay.name, d, alpha*r, dist, pts[i].Coords, got, want)
				}
				var walked []int
				r2 := dist * dist
				ix.Grid.Box(&od, q, dist, func(o int) {
					for _, j := range ix.Members(o) {
						if set.Within2Coords(int(j), q, r2) {
							walked = append(walked, int(j))
						}
					}
				})
				if !slices.Equal(got, walked) {
					t.Fatalf("%s d=%d width=%v dist=%v from %v: Within gives %v, the per-cell walk %v", lay.name, d, alpha*r, dist, pts[i].Coords, got, walked)
				}
			}
		}

		cb := newCellIndex(set, r/(2*math.Sqrt(float64(d))), lay.maxDense)
		cellOf := func(j int) []int { return cellIdx(cb.Grid, set.CoordsAt(j)) }
		for i := 0; i < queries; i++ {
			q := set.CoordsAt(i)
			centre := cellOf(i)
			cheb := func(j int) int {
				c := 0
				for a, x := range cellOf(j) {
					c = max(c, x-centre[a], centre[a]-x)
				}
				return c
			}
			for _, radius := range []int{1, l2} {
				want := 0
				for j := 0; j < n; j++ {
					if cheb(j) <= radius {
						want++
					}
				}
				walked := 0
				cb.Grid.Block(&od, q, radius, func(o int) { walked += len(cb.Members(o)) })
				if got := cb.BlockCount(&od, q, radius); got != want || got != walked {
					t.Fatalf("%s d=%d r=%v from %v: BlockCount(%d) = %d, want %d (per-cell walk %d)", lay.name, d, r, pts[i].Coords, radius, got, want, walked)
				}
			}
			// The ring holds every point whose cell is in the L2 block but
			// not the L1 block, in row-major cell order and ascending within
			// a cell.
			var want []int32
			for j := 0; j < n; j++ {
				if c := cheb(j); c > 1 && c <= l2 {
					want = append(want, int32(j))
				}
			}
			slices.SortFunc(want, func(a, b int32) int {
				return cmp.Or(slices.Compare(cellOf(int(a)), cellOf(int(b))), cmp.Compare(a, b))
			})
			if got := ringRef(cb, &od, q, l2); !slices.Equal(got, want) {
				t.Fatalf("%s d=%d r=%v from %v: ring reference gives %v, want %v", lay.name, d, r, pts[i].Coords, got, want)
			}
			if got := cb.AppendRing(nil, &od, q, 1, l2); !slices.Equal(got, want) {
				t.Fatalf("%s d=%d r=%v from %v: AppendRing gives %v, want %v", lay.name, d, r, pts[i].Coords, got, want)
			}
		}
	}

	tree := NewKDTree(set)
	var best []float64
	for i := 0; i < n; i++ {
		q, skip := set.CoordsAt(i), set.IDs[i]
		var within int
		var d2s []float64
		for j := range pts {
			if pts[j].ID == skip {
				continue
			}
			d2s = append(d2s, Dist2(pts[i], pts[j]))
			if WithinDist(pts[i], pts[j], r) {
				within++
			}
		}
		for limit := 1; limit <= within+1; limit++ {
			count, compared := tree.CountWithin(q, skip, r*r, limit)
			if count != min(limit, within) || compared < count || compared > len(d2s) {
				t.Fatalf("d=%d r=%v from %v: CountWithin(limit %d) = %d after %d comparisons, want %d of %d within",
					d, r, pts[i].Coords, limit, count, compared, min(limit, within), within)
			}
		}
		sort.Float64s(d2s)
		for k := 1; k <= len(d2s)+1; k++ {
			best = tree.Nearest(q, skip, k, best[:0])
			if len(best) > 0 && best[0] != slices.Max(best) {
				t.Fatalf("d=%d from %v: Nearest(%d) heap top %v is not its largest of %v", d, pts[i].Coords, k, best[0], best)
			}
			got := slices.Clone(best)
			sort.Float64s(got)
			want := d2s[:min(k, len(d2s))]
			for m := range want {
				if m >= len(got) || math.Float64bits(got[m]) != math.Float64bits(want[m]) {
					t.Fatalf("d=%d from %v: Nearest(%d) = %v, want %v", d, pts[i].Coords, k, got, want)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("d=%d from %v: Nearest(%d) = %v, want %v", d, pts[i].Coords, k, got, want)
			}
		}
	}
}

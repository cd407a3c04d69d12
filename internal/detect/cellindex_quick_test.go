package detect

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dod/internal/geom"
	"dod/internal/synth"
)

// mapCellIndex re-implements the pre-CSR reference layout the CSR cellIndex
// replaced: points bucketed into a map keyed by cell ordinal, core cells
// visited through a sorted key list. The property tests below pin the CSR
// index to this reference on random grids.
type mapCellIndex struct {
	grid  *geom.Grid
	cells map[int][]int32
}

func buildMapCellIndex(all *geom.PointSet, r float64) *mapCellIndex {
	ix := &mapCellIndex{
		grid:  cellGrid(all, r),
		cells: make(map[int][]int32),
	}
	d := all.Dim
	for i := 0; i < all.Len(); i++ {
		ord := ix.grid.CellOrdinalCoords(all.Coords[i*d : (i+1)*d])
		ix.cells[ord] = append(ix.cells[ord], int32(i))
	}
	return ix
}

func (ix *mapCellIndex) blockCount(ord, radius int) int {
	total := 0
	ix.grid.Neighborhood(ix.grid.Unflatten(ord), radius, func(o int) {
		total += len(ix.cells[o])
	})
	return total
}

// coreCells returns (ordinal, leading core run) pairs in ascending ordinal
// order — the old sortedOrdinals walk.
func (ix *mapCellIndex) coreCells(nCore int) (ords []int, members [][]int32) {
	for ord := range ix.cells {
		ords = append(ords, ord)
	}
	sort.Ints(ords)
	kept := ords[:0]
	for _, ord := range ords {
		ms := ix.cells[ord]
		hi := len(ms)
		for hi > 0 && int(ms[hi-1]) >= nCore {
			hi--
		}
		if hi == 0 {
			continue
		}
		kept = append(kept, ord)
		members = append(members, ms[:hi])
	}
	return kept, members
}

func randomPointSet(rng *rand.Rand) *geom.PointSet {
	dim := 1 + rng.Intn(4)
	n := 1 + rng.Intn(150)
	set := geom.NewPointSet(dim, n)
	coords := make([]float64, dim)
	for i := 0; i < n; i++ {
		for k := range coords {
			coords[k] = rng.NormFloat64() * 15
		}
		set.AppendRaw(uint64(i), coords)
	}
	return set
}

// TestCellIndexMatchesMapReference: on random point sets and radii — small
// radii force the sparse CSR layout, large ones the dense counting sort —
// the CSR index reports the identical per-cell membership, count, and
// blockCount as the map-based reference for every occupied and a sample of
// empty cells.
func TestCellIndexMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := randomPointSet(rng)
		// Radii spanning the dense/sparse split: ~1e-6 yields grids with
		// far more cells than maxDenseCells allows.
		r := []float64{1e-6, 0.1, 1, 5, 50}[rng.Intn(5)]

		var stats Stats
		csr := buildCellIndex(set, r, &stats)
		ref := buildMapCellIndex(set, r)

		if stats.PointsIndexed != int64(set.Len()) {
			t.Logf("seed %d: PointsIndexed = %d, want %d", seed, stats.PointsIndexed, set.Len())
			return false
		}
		for ord, want := range ref.cells {
			got := csr.members(ord)
			if len(got) != len(want) || csr.count(ord) != len(want) {
				t.Logf("seed %d: cell %d: got %v, want %v", seed, ord, got, want)
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed %d: cell %d: got %v, want %v", seed, ord, got, want)
					return false
				}
			}
		}
		// Empty cells must read as empty (dense grids only: wrapped sparse
		// ordinals admit no meaningful "random empty ordinal" probe).
		if nc := csr.grid.NumCells(); nc > 0 && nc < 1<<20 {
			for trial := 0; trial < 10; trial++ {
				ord := rng.Intn(nc)
				if _, occupied := ref.cells[ord]; occupied {
					continue
				}
				if csr.count(ord) != 0 || len(csr.members(ord)) != 0 {
					t.Logf("seed %d: empty cell %d non-empty in CSR", seed, ord)
					return false
				}
			}
		}
		// blockCountSc at the two radii the detector uses.
		sc := newNbScratch(set.Dim)
		for ord := range ref.cells {
			for _, radius := range []int{1, csr.l2} {
				if got, want := csr.blockCountSc(&sc, ord, radius), ref.blockCount(ord, radius); got != want {
					t.Logf("seed %d: blockCountSc(%d, %d) = %d, want %d", seed, ord, radius, got, want)
					return false
				}
			}
		}
		// Core-cell list: same ordinals, same leading core runs, exact size.
		nCore := 1 + rng.Intn(set.Len())
		wantOrds, wantMembers := ref.coreCells(nCore)
		cells := csr.coreCells(nCore)
		if len(cells) != len(wantOrds) || cap(cells) != len(wantOrds) {
			t.Logf("seed %d: %d core cells (cap %d), want %d (nCore=%d)", seed, len(cells), cap(cells), len(wantOrds), nCore)
			return false
		}
		for i, c := range cells {
			members := csr.ptIdx[c.lo:c.hi]
			if c.ord != wantOrds[i] || len(members) != len(wantMembers[i]) {
				t.Logf("seed %d: core cell %d diverges from sorted-map walk (nCore=%d)", seed, i, nCore)
				return false
			}
			for j := range members {
				if members[j] != wantMembers[i][j] {
					t.Logf("seed %d: core cell %d members diverge (nCore=%d)", seed, i, nCore)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScanLoopsAllocFree pins the acceptance criterion that the per-point
// scan loops allocate nothing once their structures are built: the
// Nested-Loop random scan and the Cell-Based block primitives must stay at
// 0 allocs/op, and the core-cell list is one allocation.
func TestScanLoopsAllocFree(t *testing.T) {
	set := geom.PointSetOf(synth.Segment(synth.Massachusetts, 2000, 3))
	pool := scanPool(set, 1)
	var stats Stats
	r2 := benchParams.R * benchParams.R

	pi := 0
	if allocs := testing.AllocsPerRun(50, func() {
		randomScan(set, pi, pool, r2, benchParams.K, &stats)
		pi = (pi + 1) % set.Len()
	}); allocs != 0 {
		t.Errorf("randomScan allocates %v per run, want 0", allocs)
	}

	ix := buildCellIndex(set, benchParams.R, &stats)
	sc := newNbScratch(set.Dim)
	ord := 0
	if allocs := testing.AllocsPerRun(50, func() {
		ix.blockCountSc(&sc, ord, 1)
		ix.blockCountSc(&sc, ord, ix.l2)
		ord = (ord + 1) % ix.grid.NumCells()
	}); allocs != 0 {
		t.Errorf("cellIndex block scans allocate %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { ix.coreCells(set.Len()) }); allocs != 1 {
		t.Errorf("coreCells allocates %v per run, want 1", allocs)
	}
}

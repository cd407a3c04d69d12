package detect

import (
	"math/rand"
	"testing"

	"dod/internal/geom"
)

// scalarRandomScan is the random scan of Nested-Loop and of Cell-Based's
// fallback written one candidate at a time: order is the seeded
// permutation, read through an index per candidate from the point's
// rotation, stopping at limit neighbours. It is the oracle randomScan is
// held to, so it stays as it was first written.
func scalarRandomScan(all *geom.PointSet, pi int, order []int, r2 float64, limit int, stats *Stats) int {
	n := all.Len()
	id := all.IDs[pi]
	offset := scanOffset(id, n)
	neighbors := 0
	if all.Dim == 2 {
		neighbors = scalarSegment2(all, pi, id, order[offset:], r2, limit, neighbors, stats)
		if neighbors < limit {
			neighbors = scalarSegment2(all, pi, id, order[:offset], r2, limit, neighbors, stats)
		}
		return neighbors
	}
	neighbors = scalarSegment(all, pi, id, order[offset:], r2, limit, neighbors, stats)
	if neighbors < limit {
		neighbors = scalarSegment(all, pi, id, order[:offset], r2, limit, neighbors, stats)
	}
	return neighbors
}

// scalarSegment visits one contiguous run of the permutation.
func scalarSegment(all *geom.PointSet, pi int, id uint64, seg []int, r2 float64, limit, neighbors int, stats *Stats) int {
	comps := int64(0)
	for _, qi := range seg {
		if neighbors >= limit {
			break
		}
		if all.IDs[qi] == id {
			continue
		}
		comps++
		if all.Within2(pi, qi, r2) {
			neighbors++
		}
	}
	stats.DistComps += comps
	return neighbors
}

// scalarSegment2 is scalarSegment with the 2-D distance test inlined.
func scalarSegment2(all *geom.PointSet, pi int, id uint64, seg []int, r2 float64, limit, neighbors int, stats *Stats) int {
	ids, coords := all.IDs, all.Coords
	px, py := coords[2*pi], coords[2*pi+1]
	comps := int64(0)
	for _, qi := range seg {
		if neighbors >= limit {
			break
		}
		if ids[qi] == id {
			continue
		}
		comps++
		dx := px - coords[2*qi]
		dy := py - coords[2*qi+1]
		if dx*dx+dy*dy <= r2 {
			neighbors++
		}
	}
	stats.DistComps += comps
	return neighbors
}

// TestRandomScanMatchesScalar holds randomScan to scalarRandomScan on every
// core point of the kernel golden file's inputs, as Nested-Loop scans them
// and as Cell-Based's fallback scans the members of its undecided cells:
// the neighbour count and the DistComps delta must agree at limit 1, at K
// and with no early exit.
func TestRandomScanMatchesScalar(t *testing.T) {
	fallbackPoints := 0
	for _, in := range goldenInputs() {
		if in.nCore == 0 {
			continue
		}
		n := in.all.Len()
		r2 := in.params.R * in.params.R
		pool := scanPool(in.all, in.seed)
		order := rand.New(rand.NewSource(in.seed)).Perm(n)
		check := func(tactic string, pi int) {
			for _, limit := range []int{1, in.params.K, n} {
				var got, want Stats
				gotN := randomScan(in.all, pi, pool, r2, limit, &got)
				wantN := scalarRandomScan(in.all, pi, order, r2, limit, &want)
				if gotN != wantN || got != want {
					t.Fatalf("%s %s point %d limit %d: randomScan (%d neighbours, %d comps), scalar (%d, %d)",
						in.name, tactic, pi, limit, gotN, got.DistComps, wantN, want.DistComps)
				}
			}
		}
		for pi := 0; pi < in.nCore; pi++ {
			check("Nested-Loop", pi)
		}
		if !hasKind(in.kinds, CellBased) {
			continue
		}
		cr := newCellRules(in.all, in.params.R, &Stats{})
		od := geom.NewOdometer(in.all.Dim)
		var decided Result
		for _, c := range cr.coreCells(in.nCore) {
			if _, white := cr.prune(&od, c, in.params.K, &decided); !white {
				continue
			}
			for _, pi := range cr.ix.Order[c.lo:c.hi] {
				check("Cell-Based", int(pi))
				fallbackPoints++
			}
		}
	}
	if fallbackPoints == 0 {
		t.Fatal("no input sent a point to Cell-Based's fallback scan")
	}
}

func hasKind(kinds []Kind, k Kind) bool {
	for _, kind := range kinds {
		if kind == k {
			return true
		}
	}
	return false
}

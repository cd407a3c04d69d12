package geom

import (
	"math"
	"math/rand"
	"testing"
)

// naiveCount mirrors the contract of CountWithin2Coords with the scalar
// Within2Coords kernel, one row at a time.
func naiveCount(s *PointSet, q []float64, skipID uint64, lo, hi int, r2 float64, limit int) (int, int) {
	neighbors, compared := 0, 0
	for j := lo; j < hi && neighbors < limit; j++ {
		if s.IDs[j] == skipID {
			continue
		}
		compared++
		if s.Within2Coords(j, q, r2) {
			neighbors++
		}
	}
	return neighbors, compared
}

// TestCountWithin2CoordsMatchesScalar cross-checks the wide counting
// kernel against the scalar per-row kernel, in the unrolled 2D/3D cases and
// the one-row-at-a-time fallback, over sets up to three chunks long. Rows
// are uniform, or sit exactly on the threshold (a copy of the partner
// that defines r2) or one ulp off it on one axis; r2 is also taken one ulp
// either side. The skip ID lands on one lane of every group of four, on
// random rows, or nowhere; lo is often not a multiple of 4; limits run
// from 0 past the row count.
func TestCountWithin2CoordsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 400; trial++ {
			n := 1 + rng.Intn(3*countChunk+9)
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			const skipID = 1 << 40
			skipLane := rng.Intn(6) // 0-3: that lane of every group; 4: random rows; 5: none
			q := make([]float64, dim)
			partner := make([]float64, dim)
			for d := range q {
				q[d] = rng.Float64() * 10
				partner[d] = q[d] + rng.Float64()*4 - 2
			}
			r2 := 0.0
			for d := range q {
				diff := partner[d] - q[d]
				r2 += diff * diff
			}
			s := NewPointSet(dim, n)
			coords := make([]float64, dim)
			for i := 0; i < n; i++ {
				copy(coords, partner)
				switch rng.Intn(4) {
				case 0: // uniform
					for d := range coords {
						coords[d] = rng.Float64() * 10
					}
				case 1: // exactly on the threshold
				default: // one ulp either side of it on one axis
					axis := rng.Intn(dim)
					coords[axis] = math.Nextafter(coords[axis], math.Inf(2*rng.Intn(2)-1))
				}
				id := uint64(i)
				if (skipLane < 4 && i >= lo && (i-lo)%4 == skipLane) || (skipLane == 4 && rng.Intn(8) == 0) {
					id = skipID
				}
				s.AppendRaw(id, coords)
			}
			limits := []int{0, 1, 2, 1 + rng.Intn(hi-lo+1), hi - lo, hi - lo + 1}
			for _, r2 := range []float64{r2, math.Nextafter(r2, 0), math.Nextafter(r2, math.Inf(1))} {
				for _, limit := range limits {
					gotN, gotC := s.CountWithin2Coords(q, skipID, lo, hi, r2, limit)
					wantN, wantC := naiveCount(s, q, skipID, lo, hi, r2, limit)
					if gotN != wantN || gotC != wantC {
						t.Fatalf("dim=%d n=%d lo=%d hi=%d skipLane=%d r2=%v limit=%d: got (%d, %d), want (%d, %d)",
							dim, n, lo, hi, skipLane, r2, limit, gotN, gotC, wantN, wantC)
					}
				}
			}
		}
	}
}

// TestCountWithin2CoordsDuplicateSkipIDs pins the correction path: several
// rows sharing the skip ID inside one 4-wide group must all be excluded.
func TestCountWithin2CoordsDuplicateSkipIDs(t *testing.T) {
	s := NewPointSet(2, 8)
	for i := 0; i < 8; i++ {
		id := uint64(1)
		if i%2 == 1 {
			id = uint64(i + 10)
		}
		s.AppendRaw(id, []float64{0, 0})
	}
	q := []float64{0, 0}
	neighbors, compared := s.CountWithin2Coords(q, 1, 0, 8, 1, 8)
	if neighbors != 4 || compared != 4 {
		t.Fatalf("got (%d, %d), want (4, 4)", neighbors, compared)
	}
}

func TestCountWithin2CoordsZeroAlloc(t *testing.T) {
	s := NewPointSet(2, 256)
	for i := 0; i < 256; i++ {
		s.AppendRaw(uint64(i), []float64{float64(i), float64(i % 7)})
	}
	q := []float64{5, 5}
	if allocs := testing.AllocsPerRun(20, func() {
		s.CountWithin2Coords(q, 3, 0, s.Len(), 25, s.Len())
	}); allocs != 0 {
		t.Errorf("CountWithin2Coords allocates %v per run, want 0", allocs)
	}
}

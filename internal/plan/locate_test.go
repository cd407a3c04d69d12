package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/sample"
)

// locateByDefinition is Locate without the overlay grid: the first
// partition, in ID order, whose half-open rectangle holds the clamped point
// (the nearest one if none does), and every other partition whose
// supporting area holds the point, in ID order.
func locateByDefinition(pl *Plan, p geom.Point) (core int, supports []int) {
	clamped := pl.Domain.Clamp(p)
	core = -1
	for _, part := range pl.Partitions {
		if pl.containsHalfOpen(part.Rect, clamped) {
			core = part.ID
			break
		}
	}
	if core == -1 {
		best := math.Inf(1)
		for _, part := range pl.Partitions {
			if d := rectDist2(part.Rect, clamped); d < best {
				best, core = d, part.ID
			}
		}
	}
	if pl.SupportR <= 0 {
		return core, nil
	}
	for _, part := range pl.Partitions {
		if part.ID == core {
			continue
		}
		in := part.Rect.Expand(pl.SupportR).Contains(p)
		if pl.ExactSupport {
			in = rectDist2(part.Rect, p) <= pl.SupportR*pl.SupportR
		}
		if in {
			supports = append(supports, part.ID)
		}
	}
	return core, supports
}

// TestLocateMatchesDefinition holds Locate, overlay grid and all, to a scan
// of every partition, for every planner at d = 1, 2, 3, 6 and 10 with both
// supporting-area criteria. The probes are random points, points on and one
// ulp either side of partition edges, and the same around each partition's
// Rect.Expand(R) edges, some of which lie outside the domain.
func TestLocateMatchesDefinition(t *testing.T) {
	const side = 100.0
	for _, d := range []int{1, 2, 3, 6, 10} {
		rng := rand.New(rand.NewSource(int64(d)))
		lo, hi := make([]float64, d), make([]float64, d)
		for i := range hi {
			hi[i] = side
		}
		domain := geom.NewRect(lo, hi)
		// Skewed data: half the points in one corner, so the data-driven
		// planners cut unevenly.
		pts := make([]geom.Point, 600)
		for i := range pts {
			c := make([]float64, d)
			for j := range c {
				c[j] = rng.Float64() * side
				if i%2 == 0 {
					c[j] *= 0.2
				}
			}
			pts[i] = geom.Point{ID: uint64(i), Coords: c}
		}
		// DMT smooths each bucket over its 3^d neighbourhood, so the
		// high-d grids stay coarse.
		buckets := map[int]int{1: 8, 2: 8, 3: 8, 6: 3, 10: 2}[d]
		hist, err := sample.FromPoints(sample.Config{Domain: domain, BucketsPerDim: buckets, Rate: 1, Seed: 1}, pts)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{NumReducers: 3, NumPartitions: 9, Params: detect.Params{R: 7, K: 4}, Detector: detect.CellBased}
		for _, planner := range allPlanners {
			pl, err := planner.Build(hist, opts)
			if err != nil {
				t.Fatalf("d=%d %s: %v", d, planner.Name(), err)
			}
			checkOverlayLists(t, pl)
			probes := locateProbes(rng, pl, 200)
			for _, exact := range []bool{false, true} {
				pl.ExactSupport = exact
				for _, p := range probes {
					core, supports := pl.Locate(p)
					wantCore, wantSupports := locateByDefinition(pl, p)
					if core != wantCore || !reflect.DeepEqual(supports, wantSupports) {
						t.Fatalf("d=%d %s exact=%v %s: Locate = (%d, %v), definition = (%d, %v)",
							d, planner.Name(), exact, fmt.Sprint(p.Coords), core, supports, wantCore, wantSupports)
					}
				}
			}
		}
	}
}

// checkOverlayLists holds pl's overlay index to what Locate needs of it:
// every cell's lists ascend, and every corner of a partition's rectangle,
// and of its supporting area clamped into the domain, lands in a cell
// whose core (support) list holds the partition.
func checkOverlayLists(t *testing.T, pl *Plan) {
	t.Helper()
	ix := pl.buildIndex()
	lists := func(ord int, support bool) []int32 {
		if support {
			return ix.supportIDs[ix.supportOff[ord]:ix.supportOff[ord+1]]
		}
		return ix.coreIDs[ix.coreOff[ord]:ix.coreOff[ord+1]]
	}
	for _, support := range []bool{false, true} {
		if support && pl.SupportR <= 0 {
			continue
		}
		for ord := 0; ord < ix.grid.NumCells(); ord++ {
			ids := lists(ord, support)
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("%s cell %d list %v (support %v) does not ascend", pl.Name, ord, ids, support)
				}
			}
		}
		d := pl.Domain.Dim()
		for _, part := range pl.Partitions {
			r := part.Rect
			if support {
				r = r.Expand(pl.SupportR)
			}
			for mask := 0; mask < 1<<d; mask++ {
				corner := make([]float64, d)
				for j := range corner {
					corner[j] = r.Min[j]
					if mask>>j&1 == 1 {
						corner[j] = r.Max[j]
					}
				}
				ord := ix.grid.CellOrdinal(pl.Domain.Clamp(geom.Point{Coords: corner}))
				if ids := lists(ord, support); !slices.Contains(ids, int32(part.ID)) {
					t.Fatalf("%s: corner %v of partition %d (support %v) lands in cell %d, whose list %v misses it", pl.Name, corner, part.ID, support, ord, ids)
				}
			}
		}
	}
}

// locateProbes returns n random points in pl's domain, then for every
// partition points whose coordinates sit on, or one ulp either side of, the
// partition's edges and its supporting area's edges.
func locateProbes(rng *rand.Rand, pl *Plan, n int) []geom.Point {
	d := pl.Domain.Dim()
	random := func() []float64 {
		c := make([]float64, d)
		for i := range c {
			c[i] = pl.Domain.Min[i] + rng.Float64()*(pl.Domain.Max[i]-pl.Domain.Min[i])
		}
		return c
	}
	var probes []geom.Point
	for i := 0; i < n; i++ {
		probes = append(probes, geom.Point{Coords: random()})
	}
	for _, part := range pl.Partitions {
		for _, r := range []geom.Rect{part.Rect, part.Rect.Expand(pl.SupportR)} {
			for k := 0; k < 8; k++ {
				c := random()
				for i := range c {
					if rng.Intn(2) == 0 {
						continue
					}
					edge := r.Min[i]
					if rng.Intn(2) == 0 {
						edge = r.Max[i]
					}
					switch rng.Intn(3) {
					case 0:
						edge = math.Nextafter(edge, math.Inf(-1))
					case 1:
						edge = math.Nextafter(edge, math.Inf(1))
					}
					c[i] = edge
				}
				probes = append(probes, geom.Point{Coords: c})
			}
		}
	}
	return probes
}

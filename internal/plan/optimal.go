package plan

import (
	"fmt"
	"math"

	"dod/internal/binpack"
	"dod/internal/geom"
	"dod/internal/sample"
)

// Exhaustive solves the multi-tactic optimization problem of Def. 3.5 by
// brute force: it enumerates every rectangular tiling of the mini-bucket
// grid (up to opts.NumPartitions partitions), prices each partition with
// its optimal algorithm (Def. 3.4 over opts.Candidates, using the
// mixed-density models), allocates partitions to reducers by LPT, and
// returns the plan minimizing the maximum reducer cost.
//
// Sec. III-C shows this search space is exponential in the number of
// buckets — the complexity argument that motivates the DMT heuristic — so
// Exhaustive is a validation oracle for tiny instances (≲ 4×4 buckets),
// used by tests and ablations to measure how close DMT lands to the true
// optimum. It returns an error for instances over maxExhaustiveBuckets.
func Exhaustive(hist *sample.Histogram, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	grid := hist.Grid
	if grid.Domain.Dim() != 2 {
		return nil, fmt.Errorf("plan: Exhaustive supports two-dimensional grids")
	}
	const maxExhaustiveBuckets = 16
	if grid.NumCells() > maxExhaustiveBuckets {
		return nil, fmt.Errorf("plan: Exhaustive limited to %d buckets, got %d", maxExhaustiveBuckets, grid.NumCells())
	}
	nx, ny := grid.Dims[0], grid.Dims[1]

	// A tiling is built cell by cell: find the first uncovered cell in
	// row-major order and try every rectangle anchored there.
	type rect struct{ x, y, w, h int }
	covered := make([]bool, nx*ny)
	var current []rect

	price := func(r rect) Partition {
		min := []float64{grid.Boundary(0, r.x), grid.Boundary(1, r.y)}
		max := []float64{grid.Boundary(0, r.x+r.w), grid.Boundary(1, r.y+r.h)}
		return priceRegion(hist, geom.Rect{Min: min, Max: max}, opts.Candidates, opts.Params)
	}

	bestCost := math.Inf(1)
	var bestTiling []rect

	evaluate := func(tiling []rect) {
		items := make([]binpack.Item, len(tiling))
		for i, r := range tiling {
			items[i] = binpack.Item{ID: i, Weight: price(r).EstCost}
		}
		if load := binpack.LPT(items, opts.NumReducers).MaxLoad(); load < bestCost {
			bestCost = load
			bestTiling = append([]rect(nil), tiling...)
		}
	}

	var search func()
	search = func() {
		// First uncovered cell in row-major order.
		first := -1
		for i, c := range covered {
			if !c {
				first = i
				break
			}
		}
		if first == -1 {
			evaluate(current)
			return
		}
		if len(current) >= opts.NumPartitions {
			return // partition budget exhausted with cells uncovered
		}
		cx, cy := first%nx, first/nx
		for w := 1; cx+w <= nx; w++ {
			// Every cell in the rectangle's first row must be free, or no
			// wider rectangle fits either.
			if covered[cy*nx+cx+w-1] {
				break
			}
			for h := 1; cy+h <= ny; h++ {
				ok := true
				for yy := cy; yy < cy+h && ok; yy++ {
					for xx := cx; xx < cx+w; xx++ {
						if covered[yy*nx+xx] {
							ok = false
							break
						}
					}
				}
				if !ok {
					break
				}
				for yy := cy; yy < cy+h; yy++ {
					for xx := cx; xx < cx+w; xx++ {
						covered[yy*nx+xx] = true
					}
				}
				current = append(current, rect{cx, cy, w, h})
				search()
				current = current[:len(current)-1]
				for yy := cy; yy < cy+h; yy++ {
					for xx := cx; xx < cx+w; xx++ {
						covered[yy*nx+xx] = false
					}
				}
			}
		}
	}
	search()

	if bestTiling == nil {
		return nil, fmt.Errorf("plan: no tiling within %d partitions", opts.NumPartitions)
	}

	pl := &Plan{
		Name:        "Exhaustive",
		Domain:      grid.Domain.Clone(),
		NumReducers: opts.NumReducers,
		SupportR:    opts.Params.R,
	}
	items := make([]binpack.Item, len(bestTiling))
	for i, r := range bestTiling {
		part := price(r)
		part.ID = i
		pl.Partitions = append(pl.Partitions, part)
		items[i] = binpack.Item{ID: i, Weight: part.EstCost}
	}
	applyAllocation(pl, binpack.LPT(items, opts.NumReducers))
	return pl, pl.Validate()
}

package plan

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dod/internal/cost"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/sample"
	"dod/internal/synth"
)

// mixedCostRef is the full-grid body mixedCost had before the planner
// priced a region over its own buckets, and countInRectRef the pool count
// it took: every histogram cell visited, its rectangle and centre
// materialised, one candidate per call. mixedCost must equal it bit for bit.
func countInRectRef(hist *sample.Histogram, rect geom.Rect) float64 {
	grid := hist.Grid
	var total float64
	for ord := 0; ord < grid.NumCells(); ord++ {
		c := hist.BucketCount(ord)
		if c == 0 {
			continue
		}
		if rect.Contains(grid.CellRect(grid.Unflatten(ord)).Center()) {
			total += c
		}
	}
	return total
}

// ringPopulation is the expected point count of the L2 block around a cell
// at the given local density.
func ringPopulation(dim int, params detect.Params, density float64) float64 {
	_, l2 := cost.BlockVolumes(dim, params.R)
	return l2 * density
}

func mixedCostRef(hist *sample.Histogram, rect geom.Rect, kind detect.Kind, params detect.Params) float64 {
	grid := hist.Grid
	dim := grid.Domain.Dim()
	poolCount := countInRectRef(hist, rect)
	if poolCount == 0 {
		return 0
	}
	regime := cost.RegimeClass(dim, params)

	var total float64
	for ord := 0; ord < grid.NumCells(); ord++ {
		c := hist.BucketCount(ord)
		if c == 0 {
			continue
		}
		if !rect.Contains(grid.CellRect(grid.Unflatten(ord)).Center()) {
			continue
		}
		density := hist.BucketDensity(ord)
		var perPoint float64
		switch kind {
		case detect.NestedLoop:
			perPoint = cost.PerPointTrials(density, poolCount, dim, params)
		case detect.CellBased:
			perPoint = 1 + cost.GridEnumExcess(dim, poolCount) // the L2 block walk
			if regime(density) == 2 {
				perPoint += cost.PerPointTrials(density, poolCount, dim, params)
			}
		case detect.CellBasedL2:
			perPoint = 1 + cost.GridEnumExcess(dim, poolCount) // the L2 block walk
			if regime(density) == 2 {
				ring := ringPopulation(dim, params, density)
				trials := cost.PerPointTrials(density, poolCount, dim, params)
				if ring < trials {
					trials = ring
				}
				perPoint += trials
			}
		case detect.BruteForce:
			perPoint = poolCount
		case detect.KDTree:
			perPoint = cost.KDPerQuery(poolCount, dim, params)
		case detect.PGraph:
			lambda := cost.ExpectedNeighbors(density, dim, params.R)
			if emp, ok := hist.AvgNeighbors(params.R); ok {
				if g := globalDensity(hist); g > 0 {
					if scaled := emp * (density / g); scaled > lambda {
						lambda = scaled
					}
				}
			}
			perPoint = cost.ProxGraphPerPoint(lambda, poolCount, params)
		default:
			perPoint = cost.Estimate(kind, cost.PartitionProfile{
				Cardinality: poolCount, Area: rect.AreaEps(1e-12), Dim: dim,
			}, params) / poolCount
		}
		total += c * perPoint
	}
	return total
}

// pricedKinds is every detector kind the cost model prices.
var pricedKinds = []detect.Kind{
	detect.BruteForce, detect.NestedLoop, detect.CellBased, detect.KDTree,
	detect.CellBasedL2, detect.Pivot, detect.PGraph, detect.SSample,
}

// pricingHistogram draws a skewed d-dimensional histogram: log-normal,
// non-integer bucket counts, a quarter of the buckets empty, the domain
// off the origin. flatDim ≥ 0 gives that dimension zero extent; retain keeps
// sample points, so Prox-Graph pricing takes its empirical branch.
func pricingHistogram(rng *rand.Rand, d, flatDim int, retain bool) *sample.Histogram {
	min := make([]float64, d)
	max := make([]float64, d)
	dims := make([]int, d)
	for i := range dims {
		min[i] = -50 + rng.Float64()*100
		max[i] = min[i] + 5 + rng.Float64()*200
		if i == flatDim {
			max[i] = min[i]
		}
		dims[i] = 1 + rng.Intn(36/(d*d)+3)
	}
	grid := geom.NewGrid(geom.NewRect(min, max), dims)
	h := &sample.Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: 0.3}
	for i := range h.Counts {
		if rng.Float64() < 0.25 {
			continue
		}
		h.Counts[i] = math.Floor(math.Exp(rng.NormFloat64()*2)*20) / 0.3
	}
	if retain {
		for i := 0; i < 40; i++ {
			c := make([]float64, d)
			for j := range c {
				c[j] = min[j] + rng.Float64()*(max[j]-min[j])
			}
			h.Sampled = append(h.Sampled, geom.Point{ID: uint64(i), Coords: c})
		}
	}
	return h
}

// pricingRects returns the rectangles one histogram is priced over: the
// domain, bucket-aligned boxes (what the planners produce), unaligned boxes
// inside, across and beyond the domain, a sliver between two bucket
// centres, a zero-extent rectangle and one that misses the domain.
func pricingRects(rng *rand.Rand, h *sample.Histogram) []geom.Rect {
	grid := h.Grid
	d := grid.Domain.Dim()
	box := func(f func(i int) (lo, hi float64)) geom.Rect {
		min := make([]float64, d)
		max := make([]float64, d)
		for i := 0; i < d; i++ {
			min[i], max[i] = f(i)
		}
		return geom.Rect{Min: min, Max: max}
	}
	rects := []geom.Rect{grid.Domain}
	for n := 0; n < 6; n++ {
		rects = append(rects, box(func(i int) (float64, float64) {
			lo := rng.Intn(grid.Dims[i])
			hi := lo + 1 + rng.Intn(grid.Dims[i]-lo)
			return grid.Boundary(i, lo), grid.Boundary(i, hi)
		}))
	}
	for n := 0; n < 6; n++ {
		rects = append(rects, box(func(i int) (float64, float64) {
			ext := grid.Domain.Max[i] - grid.Domain.Min[i]
			a := grid.Domain.Min[i] + (rng.Float64()*1.4-0.2)*ext
			b := grid.Domain.Min[i] + (rng.Float64()*1.4-0.2)*ext
			return math.Min(a, b), math.Max(a, b)
		}))
	}
	rects = append(rects,
		box(func(i int) (float64, float64) { // strictly between two centres
			w := grid.CellWidth(i)
			return grid.Domain.Min[i] + 0.6*w, grid.Domain.Min[i] + 0.9*w
		}),
		box(func(i int) (float64, float64) { // a bucket centre, exactly
			c := (grid.Boundary(i, 0) + grid.Boundary(i, 1)) / 2
			return c, c
		}),
		box(func(i int) (float64, float64) {
			return grid.Domain.Max[i] + 1, grid.Domain.Max[i] + 2
		}))
	return rects
}

// TestPricingBitIdenticalToFullGridReference: mixedCost must return
// exactly the floats the full-grid reference body returns —
// same operations, same order — for every priced kind, on aligned and
// unaligned rectangles, empty regions and zero-extent dimensions, in 1, 2,
// 3 and 5 dimensions. Bit equality is what makes plans byte-identical.
func TestPricingBitIdenticalToFullGridReference(t *testing.T) {
	paramSets := []detect.Params{{R: 5, K: 4}, {R: 0.7, K: 1}, {R: 40, K: 9}}
	for _, d := range []int{1, 2, 3, 5} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(d)))
			flat := -1
			if seed%4 == 3 {
				flat = rng.Intn(d)
			}
			h := pricingHistogram(rng, d, flat, seed%2 == 0)
			params := paramSets[seed%int64(len(paramSets))]
			for ri, rect := range pricingRects(rng, h) {
				for _, kind := range pricedKinds {
					want, got := mixedCostRef(h, rect, kind, params), mixedCost(h, rect, kind, params)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("d=%d seed=%d rect %d %v %v: mixedCost %v, reference %v", d, seed, ri, rect, kind, got, want)
					}
				}
			}
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the plans this tree builds")

// exactKinds is the seven-tactic candidate set: every exact detector.
var exactKinds = []detect.Kind{
	detect.BruteForce, detect.NestedLoop, detect.CellBased, detect.KDTree,
	detect.CellBasedL2, detect.Pivot, detect.PGraph,
}

// goldenPlans builds the plan matrix the golden file pins and returns
// "name sha256(MarshalJSON)" lines: DMT / CDriven / DDriven × {default,
// seven-tactic} candidates (the single-tactic planners switch detector
// with them) × 1 / 4 / 16 reducers, over the benchmark's two 2-d inputs on
// sampling seeds 1–8 and over 1-, 3- and 5-d clouds; plus Exhaustive on
// 4×4 histograms.
func goldenPlans(t *testing.T) []string {
	t.Helper()
	type input struct {
		name string
		hist *sample.Histogram
	}
	var inputs []input
	add := func(name string, pts []geom.Point, perDim int, seed int64) {
		h, err := sample.FromPoints(sample.Config{Domain: geom.Bounds(pts), BucketsPerDim: perDim, Rate: 0.05, Seed: seed}, pts)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("%s/seed%d", name, seed), h})
	}
	ma := synth.Segment(synth.Massachusetts, 20000, 1)
	us := synth.Hierarchical(synth.LevelUS, 50000, 1)
	for seed := int64(1); seed <= 8; seed++ {
		add("MA", ma, 32, seed)
		add("US", us, 32, seed)
	}
	for _, c := range []struct{ d, perDim int }{{1, 32}, {3, 8}, {5, 4}} {
		add(fmt.Sprintf("cloud%dd", c.d), synth.GaussianCloud(20000, c.d, 1), c.perDim, 1)
	}

	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{Detector: detect.CellBased}},
		{"seven", Options{Detector: detect.PGraph, Candidates: exactKinds}},
	}
	var lines []string
	line := func(name string, pl *Plan, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := pl.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", name, sha256.Sum256(js)))
	}
	for _, in := range inputs {
		for _, planner := range []Planner{DMT, CDriven, DDriven} {
			for _, v := range variants {
				for _, reducers := range []int{1, 4, 16} {
					opts := v.opts
					opts.NumReducers = reducers
					opts.Params = testParams
					pl, err := planner.Build(in.hist, opts)
					line(fmt.Sprintf("%s/%s/%s/r%d", in.name, planner.Name(), v.name, reducers), pl, err)
				}
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := tinyHistogram(t, 4, func(x, y int) float64 { return math.Floor(math.Exp(rng.NormFloat64()*2) * 20) })
		for _, v := range variants {
			opts := v.opts
			opts.NumReducers, opts.NumPartitions, opts.Params = 2, 5, testParams
			pl, err := Exhaustive(h, opts)
			line(fmt.Sprintf("tiny%d/Exhaustive/%s", seed, v.name), pl, err)
		}
	}
	return lines
}

// TestPlansGolden pins the serialized bytes of every plan of goldenPlans to
// testdata/plans.golden, generated with -update before the planner's
// pricing pass was rewritten and not since: a planner change that moves one
// float of one partition moves a hash.
func TestPlansGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats are amd64's: other architectures may fuse multiply-adds")
	}
	path := filepath.Join("testdata", "plans.golden")
	got := goldenPlans(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("built %d plans, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("plan differs from golden:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

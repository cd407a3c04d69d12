package plan

import (
	"math"
	"math/rand"
	"testing"

	"dod/internal/cost"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/sample"
)

var testParams = detect.Params{R: 5, K: 4}

// skewedHistogram builds a histogram with a dense block, a medium band,
// and sparse remainder over [0,100]².
func skewedHistogram(t *testing.T) *sample.Histogram {
	t.Helper()
	domain := geom.NewRect([]float64{0, 0}, []float64{100, 100})
	grid := geom.NewGrid(domain, []int{10, 10})
	h := &sample.Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: 1}
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			var c float64
			switch {
			case x < 3 && y < 3:
				c = 5000 // dense city block
			case x < 6:
				c = 300 // suburban band
			default:
				c = 10 // rural
			}
			h.Counts[grid.Flatten([]int{x, y})] = c
		}
	}
	return h
}

// uniformHistogram builds a flat histogram.
func uniformHistogram(t *testing.T, perBucket float64) *sample.Histogram {
	t.Helper()
	domain := geom.NewRect([]float64{0, 0}, []float64{100, 100})
	grid := geom.NewGrid(domain, []int{8, 8})
	h := &sample.Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: 1}
	for i := range h.Counts {
		h.Counts[i] = perBucket
	}
	return h
}

var allPlanners = []Planner{Domain, UniSpace, DDriven, CDriven, DMT}

func buildAll(t *testing.T, h *sample.Histogram, opts Options) map[string]*Plan {
	t.Helper()
	out := map[string]*Plan{}
	for _, p := range allPlanners {
		pl, err := p.Build(h, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		out[p.Name()] = pl
	}
	return out
}

func TestAllPlannersProduceValidPlans(t *testing.T) {
	h := skewedHistogram(t)
	opts := Options{NumReducers: 4, NumPartitions: 16, Params: testParams, Detector: detect.CellBased}
	plans := buildAll(t, h, opts)
	for name, pl := range plans {
		if err := pl.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if pl.Name != name {
			t.Errorf("plan name %q != planner name %q", pl.Name, name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Domain", "uniSpace", "DDriven", "CDriven", "DMT"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("bogus planner name accepted")
	}
}

func TestDomainPlannerHasNoSupport(t *testing.T) {
	h := uniformHistogram(t, 100)
	pl, err := Domain.Build(h, Options{NumReducers: 2, NumPartitions: 4, Params: testParams, Detector: detect.NestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	if pl.SupportR != 0 {
		t.Errorf("Domain SupportR = %g, want 0", pl.SupportR)
	}
	_, supports := pl.Locate(geom.Point{Coords: []float64{50, 50}})
	if len(supports) != 0 {
		t.Errorf("Domain plan returned supports %v", supports)
	}
}

func TestLocateCoreUniqueAndCovering(t *testing.T) {
	h := skewedHistogram(t)
	opts := Options{NumReducers: 4, NumPartitions: 16, Params: testParams, Detector: detect.CellBased}
	rng := rand.New(rand.NewSource(3))
	for name, pl := range buildAll(t, h, opts) {
		for trial := 0; trial < 2000; trial++ {
			p := geom.Point{ID: uint64(trial), Coords: []float64{rng.Float64() * 100, rng.Float64() * 100}}
			core, _ := pl.Locate(p)
			if core < 0 || core >= len(pl.Partitions) {
				t.Fatalf("%s: Locate returned core %d", name, core)
			}
			// Exactly one partition may claim the point as core.
			claims := 0
			for _, part := range pl.Partitions {
				if pl.containsHalfOpen(part.Rect, p) {
					claims++
				}
			}
			if claims != 1 {
				t.Fatalf("%s: point %v claimed by %d partitions", name, p, claims)
			}
		}
	}
}

func TestLocateBoundaryPoints(t *testing.T) {
	h := uniformHistogram(t, 100)
	pl, err := UniSpace.Build(h, Options{NumReducers: 2, NumPartitions: 4, Params: testParams, Detector: detect.NestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	// Interior shared boundary: belongs to exactly one partition.
	onBoundary := geom.Point{Coords: []float64{50, 25}}
	core1, _ := pl.Locate(onBoundary)
	if core1 < 0 {
		t.Fatal("boundary point unassigned")
	}
	// Domain corners must be assigned.
	for _, c := range [][]float64{{0, 0}, {100, 0}, {0, 100}, {100, 100}} {
		core, _ := pl.Locate(geom.Point{Coords: c})
		if core < 0 {
			t.Errorf("corner %v unassigned", c)
		}
	}
	// Out-of-domain points clamp to a valid partition.
	core, _ := pl.Locate(geom.Point{Coords: []float64{-10, 500}})
	if core < 0 {
		t.Error("out-of-domain point unassigned")
	}
}

func TestLocateSupportSemantics(t *testing.T) {
	// Support membership must match Def. 3.3 exactly: p supports partition
	// P iff p is in P's r-expansion but not P's core.
	h := skewedHistogram(t)
	opts := Options{NumReducers: 4, NumPartitions: 12, Params: testParams, Detector: detect.NestedLoop}
	rng := rand.New(rand.NewSource(7))
	for _, planner := range []Planner{UniSpace, DDriven, CDriven, DMT} {
		pl, err := planner.Build(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 1000; trial++ {
			p := geom.Point{Coords: []float64{rng.Float64() * 100, rng.Float64() * 100}}
			core, supports := pl.Locate(p)
			inSupports := map[int]bool{}
			for _, s := range supports {
				if s == core {
					t.Fatalf("%s: core %d repeated in supports", planner.Name(), core)
				}
				if inSupports[s] {
					t.Fatalf("%s: duplicate support %d", planner.Name(), s)
				}
				inSupports[s] = true
			}
			for _, part := range pl.Partitions {
				want := part.ID != core && part.Rect.Expand(testParams.R).Contains(p)
				if inSupports[part.ID] != want {
					t.Fatalf("%s: point %v support of partition %d = %v, want %v",
						planner.Name(), p, part.ID, inSupports[part.ID], want)
				}
			}
		}
	}
}

func TestDDrivenBalancesCardinality(t *testing.T) {
	h := skewedHistogram(t)
	pl, err := DDriven.Build(h, Options{NumReducers: 4, NumPartitions: 32, Params: testParams, Detector: detect.NestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, pl.NumReducers)
	var total float64
	for _, p := range pl.Partitions {
		counts[p.Reducer] += p.EstCount
		total += p.EstCount
	}
	if math.Abs(total-h.EstimatedTotal()) > 1e-6*total {
		t.Fatalf("total %g != histogram %g", total, h.EstimatedTotal())
	}
	mean := total / float64(pl.NumReducers)
	for r, c := range counts {
		if c > 1.6*mean {
			t.Errorf("reducer %d holds %g points, mean %g: cardinality imbalance", r, c, mean)
		}
	}
}

func TestCDrivenBalancesCostBetterThanDDriven(t *testing.T) {
	// On skewed data the cost-driven plan must yield a lower max reducer
	// cost than the cardinality-driven plan (Sec. VI-B's core claim),
	// comparing both under the same cost model.
	h := skewedHistogram(t)
	opts := Options{NumReducers: 8, NumPartitions: 32, Params: testParams, Detector: detect.NestedLoop}
	dd, err := DDriven.Build(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := CDriven.Build(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cd.MaxEstCost() > dd.MaxEstCost() {
		t.Errorf("CDriven max cost %g worse than DDriven %g", cd.MaxEstCost(), dd.MaxEstCost())
	}
}

func TestDMTSelectsDifferentAlgorithmsOnSkewedData(t *testing.T) {
	// The multi-tactic property: on data with dense and intermediate
	// regions, DMT's algorithm plan over the paper's A must contain both
	// candidates.
	h := skewedHistogram(t)
	pl, err := DMT.Build(h, Options{NumReducers: 4, Params: testParams, Candidates: PaperCandidates()})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[detect.Kind]bool{}
	for _, p := range pl.Partitions {
		seen[p.Algo] = true
	}
	if !seen[detect.NestedLoop] || !seen[detect.CellBased] {
		t.Errorf("DMT algorithm plan uses %v; want both Nested-Loop and Cell-Based", seen)
	}
}

func TestDMTAlgorithmPlanMatchesCorollary43(t *testing.T) {
	// Corollary 4.3 chooses between the paper's A.
	h := skewedHistogram(t)
	pl, err := DMT.Build(h, Options{NumReducers: 4, Params: testParams, Candidates: PaperCandidates()})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.Partitions {
		prof := p.Profile()
		if c := cost.Select(prof, testParams); c != p.Algo {
			// SelectFrom and Select may only disagree on exact cost ties.
			nl := cost.Estimate(detect.NestedLoop, prof, testParams)
			cb := cost.Estimate(detect.CellBased, prof, testParams)
			if nl != cb {
				t.Errorf("partition %d (density %g): algo %v, corollary says %v",
					p.ID, prof.Density(), p.Algo, c)
			}
		}
	}
}

func TestDMTPlanCostNotWorseThanSingleTactic(t *testing.T) {
	h := skewedHistogram(t)
	opts := Options{NumReducers: 8, NumPartitions: 32, Params: testParams}
	optsNL, optsCB := opts, opts
	optsNL.Detector = detect.NestedLoop
	optsCB.Detector = detect.CellBased
	cdNL, err := CDriven.Build(h, optsNL)
	if err != nil {
		t.Fatal(err)
	}
	cdCB, err := CDriven.Build(h, optsCB)
	if err != nil {
		t.Fatal(err)
	}
	dmt, err := DMT.Build(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Min(cdNL.MaxEstCost(), cdCB.MaxEstCost())
	if dmt.MaxEstCost() > best*1.5 {
		t.Errorf("DMT max cost %g much worse than best single tactic %g", dmt.MaxEstCost(), best)
	}
}

func TestGridPlanPartitionCount(t *testing.T) {
	h := uniformHistogram(t, 10)
	pl, err := UniSpace.Build(h, Options{NumReducers: 2, NumPartitions: 16, Params: testParams, Detector: detect.NestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Partitions) != 16 {
		t.Errorf("got %d partitions, want 16", len(pl.Partitions))
	}
}

func TestReducerForMatchesAssignment(t *testing.T) {
	h := skewedHistogram(t)
	pl, err := CDriven.Build(h, Options{NumReducers: 4, NumPartitions: 16, Params: testParams, Detector: detect.CellBased})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.Partitions {
		if got := pl.ReducerFor(uint64(p.ID)); got != p.Reducer {
			t.Errorf("ReducerFor(%d) = %d, want %d", p.ID, got, p.Reducer)
		}
	}
}

func TestFillCountsPreservesTotal(t *testing.T) {
	h := skewedHistogram(t)
	for _, planner := range allPlanners {
		pl, err := planner.Build(h, Options{NumReducers: 4, NumPartitions: 16, Params: testParams, Detector: detect.NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, p := range pl.Partitions {
			total += p.EstCount
		}
		if math.Abs(total-h.EstimatedTotal()) > 1e-6*total {
			t.Errorf("%s: partition counts %g != histogram total %g", planner.Name(), total, h.EstimatedTotal())
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	h := uniformHistogram(t, 10)
	pl, err := DMT.Build(h, Options{Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumReducers != 1 {
		t.Errorf("default reducers = %d, want 1", pl.NumReducers)
	}
}

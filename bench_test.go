package dod

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sec. VI) plus ablations for the design choices DESIGN.md
// calls out. Each figure benchmark regenerates the corresponding workload
// sweep; the reported custom metrics are the figure's y-values (simulated
// cluster seconds), so `go test -bench` output doubles as the data behind
// EXPERIMENTS.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-iteration wall time of a figure benchmark is the cost of
// regenerating that figure at bench scale, not a paper quantity.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dod/internal/binpack"
	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/dshc"
	"dod/internal/experiments"
	"dod/internal/geom"
	"dod/internal/plan"
	"dod/internal/sample"
	"dod/internal/synth"
)

// benchConfig keeps figure regeneration fast enough for -bench=. while
// preserving the density/skew structure. EXPERIMENTS.md quotes cmd/dodfig,
// which runs the default, larger experiments.Config.
func benchConfig() experiments.Config {
	return experiments.Config{
		SegmentN: 8000,
		BaseN:    2000,
		SweepN:   6000,
		Reducers: 8,
		Seed:     1,
	}
}

// reportFigure exposes every (series, x) cell of a figure as a benchmark
// metric.
func reportFigure(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		for _, p := range s.Points {
			b.ReportMetric(p.Y, fmt.Sprintf("%s@%s_simsec", sanitize(s.Label), sanitize(p.X)))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '+', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func benchFigure(b *testing.B, run func(experiments.Config) (*experiments.Figure, error)) {
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

// BenchmarkFig4_NestedLoopDensitySensitivity regenerates Fig. 4: Nested-
// Loop on equal-cardinality sparse vs dense uniform data (paper: ≈4.5×).
func BenchmarkFig4_NestedLoopDensitySensitivity(b *testing.B) {
	benchFigure(b, experiments.Fig4)
}

// BenchmarkFig5_DetectorDensitySweep regenerates Fig. 5: Cell-Based vs
// Nested-Loop across densities 0.01–100.
func BenchmarkFig5_DetectorDensitySweep(b *testing.B) {
	benchFigure(b, experiments.Fig5)
}

// BenchmarkFig7a_PartitioningEffectivenessNL regenerates Fig. 7a:
// partitioning strategies relative to CDriven under Nested-Loop.
func BenchmarkFig7a_PartitioningEffectivenessNL(b *testing.B) {
	benchFigure(b, experiments.Fig7a)
}

// BenchmarkFig7b_PartitioningEffectivenessCB regenerates Fig. 7b: the same
// under Cell-Based.
func BenchmarkFig7b_PartitioningEffectivenessCB(b *testing.B) {
	benchFigure(b, experiments.Fig7b)
}

// BenchmarkFig8a_PartitioningScalabilityNL regenerates Fig. 8a: MA→Planet
// scalability under Nested-Loop.
func BenchmarkFig8a_PartitioningScalabilityNL(b *testing.B) {
	benchFigure(b, experiments.Fig8a)
}

// BenchmarkFig8b_PartitioningScalabilityCB regenerates Fig. 8b: the same
// under Cell-Based.
func BenchmarkFig8b_PartitioningScalabilityCB(b *testing.B) {
	benchFigure(b, experiments.Fig8b)
}

// BenchmarkFig9a_DetectionMethodsByDistribution regenerates Fig. 9a:
// CDriven+NL vs CDriven+CB vs DMT on the four segments.
func BenchmarkFig9a_DetectionMethodsByDistribution(b *testing.B) {
	benchFigure(b, experiments.Fig9a)
}

// BenchmarkFig9b_DetectionMethodsScalability regenerates Fig. 9b: the same
// on MA→Planet.
func BenchmarkFig9b_DetectionMethodsScalability(b *testing.B) {
	benchFigure(b, experiments.Fig9b)
}

// BenchmarkFig10a_BreakdownDistorted regenerates Fig. 10a: stage breakdown
// on the distorted (terabyte-analog) dataset.
func BenchmarkFig10a_BreakdownDistorted(b *testing.B) {
	benchFigure(b, experiments.Fig10a)
}

// BenchmarkFig10b_BreakdownTiger regenerates Fig. 10b: stage breakdown on
// the TIGER analog.
func BenchmarkFig10b_BreakdownTiger(b *testing.B) {
	benchFigure(b, experiments.Fig10b)
}

// ---------------------------------------------------------------------------
// Detector micro-benchmarks: raw centralized detector throughput on one
// segment (useful for profiling, and the data behind the Sec. IV claims).

func BenchmarkDetector(b *testing.B) {
	pts := synth.Segment(synth.Massachusetts, 8000, 3)
	params := detect.Params{R: 5, K: 4}
	for _, kind := range []detect.Kind{detect.NestedLoop, detect.CellBased, detect.CellBasedL2, detect.KDTree} {
		b.Run(sanitize(kind.String()), func(b *testing.B) {
			var comps int64
			for i := 0; i < b.N; i++ {
				res := detect.New(kind, 7).Detect(pts, nil, params)
				comps = res.Stats.Cost()
			}
			b.ReportMetric(float64(comps), "workunits")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: supporting area Def. 3.3 (rectangular expansion) vs the exact
// Def. 3.2 region — replication volume vs mapping cost.

func BenchmarkAblationSupportArea(b *testing.B) {
	pts := synth.Segment(synth.NewYork, 10000, 5)
	for _, exact := range []bool{false, true} {
		name := "Def3.3_rectExpansion"
		if exact {
			name = "Def3.2_exact"
		}
		b.Run(name, func(b *testing.B) {
			var supp int64
			for i := 0; i < b.N; i++ {
				input, err := core.InputFromPoints(pts, 4096)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := core.Run(context.Background(), input, core.Config{
					Params:  detect.Params{R: 5, K: 4},
					Planner: plan.UniSpace,
					PlanOpts: plan.Options{
						NumReducers: 8, NumPartitions: 32,
						Detector: detect.CellBased, ExactSupport: exact,
					},
					SampleRate: 1, Seed: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				supp = rep.SupportRecords
			}
			b.ReportMetric(float64(supp), "support_records")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: allocation algorithm (DMT Step 3) — LPT vs Karmarkar–Karp vs
// round-robin on a skewed partition cost set.

func BenchmarkAblationAllocator(b *testing.B) {
	pts := synth.Segment(synth.Massachusetts, 12000, 7)
	hist, err := sample.FromPoints(sample.Config{
		Domain:        boundsOf(pts),
		BucketsPerDim: 24,
		Rate:          1,
		Seed:          3,
	}, pts)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := plan.DMT.Build(hist, plan.Options{NumReducers: 8, Params: detect.Params{R: 5, K: 4}})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]binpack.Item, len(pl.Partitions))
	for i, p := range pl.Partitions {
		items[i] = binpack.Item{ID: p.ID, Weight: p.EstCost}
	}
	allocators := []struct {
		name string
		fn   func([]binpack.Item, int) *binpack.Assignment
	}{
		{"LPT", binpack.LPT},
		{"KarmarkarKarp", binpack.KarmarkarKarp},
		{"RoundRobin", binpack.RoundRobin},
	}
	for _, a := range allocators {
		b.Run(a.name, func(b *testing.B) {
			var load float64
			for i := 0; i < b.N; i++ {
				load = a.fn(items, 8).MaxLoad()
			}
			b.ReportMetric(load, "max_reducer_cost")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: DSHC density-similarity criterion — regime classes (the
// default) vs absolute Tdiff thresholds (the paper's Def. 5.2 verbatim).

func BenchmarkAblationTdiff(b *testing.B) {
	pts := synth.Segment(synth.Massachusetts, 12000, 9)
	params := detect.Params{R: 5, K: 4}
	hist, err := sample.FromPoints(sample.Config{
		Domain:        boundsOf(pts),
		BucketsPerDim: 22,
		Rate:          1,
		Seed:          4,
	}, pts)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		dshc dshc.Params
	}{
		{"regimeClasses", dshc.Params{}}, // planner default
		{"absolute_0.05", dshc.Params{Tdiff: 0.05}},
		{"absolute_0.5", dshc.Params{Tdiff: 0.5}},
		{"absolute_5", dshc.Params{Tdiff: 5}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var parts, maxCost float64
			for i := 0; i < b.N; i++ {
				pl, err := plan.DMT.Build(hist, plan.Options{
					NumReducers: 8, Params: params, DSHC: tc.dshc,
				})
				if err != nil {
					b.Fatal(err)
				}
				parts = float64(len(pl.Partitions))
				maxCost = pl.MaxEstCost()
			}
			b.ReportMetric(parts, "partitions")
			b.ReportMetric(maxCost, "max_reducer_cost")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: sampling rate Υ — plan quality (simulated reduce makespan of
// the detection job) versus preprocessing cost.

func BenchmarkAblationSampleRate(b *testing.B) {
	pts := synth.Segment(synth.Massachusetts, 12000, 11)
	for _, rate := range []float64{0.01, 0.05, 0.2, 1.0} {
		b.Run(fmt.Sprintf("rate_%g", rate), func(b *testing.B) {
			var reduceSec, preSec float64
			for i := 0; i < b.N; i++ {
				input, err := core.InputFromPoints(pts, 4096)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := core.Run(context.Background(), input, core.Config{
					Params:     detect.Params{R: 5, K: 4},
					Planner:    plan.DMT,
					PlanOpts:   plan.Options{NumReducers: 8},
					SampleRate: rate,
					Seed:       5,
				})
				if err != nil {
					b.Fatal(err)
				}
				reduceSec = rep.Simulated.Reduce.Seconds()
				preSec = rep.Simulated.Preprocess.Seconds()
			}
			b.ReportMetric(reduceSec, "reduce_simsec")
			b.ReportMetric(preSec, "preprocess_simsec")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: the paper's Cell-Based (full-pool fallback, Lemma 4.2) vs the
// CellBasedL2 extension (L1-seeded ring scan) across the density regimes.

func BenchmarkAblationCellBasedVariants(b *testing.B) {
	params := detect.Params{R: 5, K: 4}
	for _, density := range []float64{0.01, 0.06, 1.0} {
		pts := synth.JitteredGrid(6000, density, 13)
		for _, kind := range []detect.Kind{detect.CellBased, detect.CellBasedL2} {
			b.Run(fmt.Sprintf("density_%g/%s", density, sanitize(kind.String())), func(b *testing.B) {
				var work int64
				for i := 0; i < b.N; i++ {
					work = detect.New(kind, 7).Detect(pts, nil, params).Stats.Cost()
				}
				b.ReportMetric(float64(work), "workunits")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation: DMT's algorithm candidate set A — the paper's {NL, CB} versus
// extended sets including the beyond-paper detectors.

func BenchmarkAblationCandidateSet(b *testing.B) {
	pts := synth.Segment(synth.Massachusetts, 12000, 15)
	sets := []struct {
		name       string
		candidates []detect.Kind
	}{
		{"paper_NL_CB", []detect.Kind{detect.NestedLoop, detect.CellBased}},
		{"with_CellBasedL2", []detect.Kind{detect.NestedLoop, detect.CellBased, detect.CellBasedL2}},
		{"with_KDTree", []detect.Kind{detect.NestedLoop, detect.CellBased, detect.KDTree}},
		{"all_five", []detect.Kind{detect.NestedLoop, detect.CellBased, detect.CellBasedL2, detect.KDTree, detect.Pivot}},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			var reduceSec float64
			var comps int64
			for i := 0; i < b.N; i++ {
				input, err := core.InputFromPoints(pts, 4096)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := core.Run(context.Background(), input, core.Config{
					Params:  detect.Params{R: 5, K: 4},
					Planner: plan.DMT,
					PlanOpts: plan.Options{
						NumReducers: 8,
						Candidates:  set.candidates,
					},
					SampleRate: 1, Seed: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				reduceSec = rep.Simulated.Reduce.Seconds()
				comps = rep.DistComps
			}
			b.ReportMetric(reduceSec, "reduce_simsec")
			b.ReportMetric(float64(comps), "distcomps")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: DMT versus the exhaustive optimum of Def. 3.5 on tiny
// instances where the exponential search is feasible — how much does the
// heuristic leave on the table?

func BenchmarkAblationDMTvsOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	domain := Rect{Min: []float64{0, 0}, Max: []float64{30, 30}}
	dims := []int{3, 3}
	grid := geom.NewGrid(domain, dims)
	h := &sample.Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: 1}
	for i := range h.Counts {
		h.Counts[i] = float64(rng.Intn(500))
	}
	opts := plan.Options{NumReducers: 2, NumPartitions: 9, Params: detect.Params{R: 5, K: 4}}
	b.Run("Exhaustive", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			pl, err := plan.Exhaustive(h, opts)
			if err != nil {
				b.Fatal(err)
			}
			cost = pl.MaxEstCost()
		}
		b.ReportMetric(cost, "max_reducer_cost")
	})
	b.Run("DMT", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			pl, err := plan.DMT.Build(h, opts)
			if err != nil {
				b.Fatal(err)
			}
			cost = pl.MaxEstCost()
		}
		b.ReportMetric(cost, "max_reducer_cost")
	})
}

// ---------------------------------------------------------------------------
// Extension: detector scaling with dimensionality. The paper evaluates in
// two dimensions; every detector here generalizes to d dimensions, and this
// benchmark tracks how their work grows as d rises (the Cell-Based blocks
// grow as 3^d/7^d, the kd-tree degrades gracefully).

func BenchmarkDimensionality(b *testing.B) {
	params := detect.Params{R: 5, K: 4}
	for _, d := range []int{2, 3, 4} {
		pts := gaussianCloudD(4000, d, 17)
		for _, kind := range []detect.Kind{detect.NestedLoop, detect.CellBased, detect.KDTree} {
			b.Run(fmt.Sprintf("d%d/%s", d, sanitize(kind.String())), func(b *testing.B) {
				var work int64
				for i := 0; i < b.N; i++ {
					work = detect.New(kind, 7).Detect(pts, nil, params).Stats.Cost()
				}
				b.ReportMetric(float64(work), "workunits")
			})
		}
	}
}

// gaussianCloudD builds an n-point d-dimensional Gaussian cloud scaled so
// the average density stays in the intermediate regime.
func gaussianCloudD(n, d int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		coords := make([]float64, d)
		for j := range coords {
			coords[j] = rng.NormFloat64() * 20
		}
		pts[i] = Point{ID: uint64(i), Coords: coords}
	}
	return pts
}

// boundsOf is a small helper around geom.Bounds for bench setup.
func boundsOf(pts []Point) Rect {
	min := append([]float64(nil), pts[0].Coords...)
	max := append([]float64(nil), pts[0].Coords...)
	for _, p := range pts[1:] {
		for i, v := range p.Coords {
			if v < min[i] {
				min[i] = v
			}
			if v > max[i] {
				max[i] = v
			}
		}
	}
	return Rect{Min: min, Max: max}
}

package experiments

import (
	"context"
	"fmt"

	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/plan"
	"dod/internal/synth"
)

// PaperParams are the outlier parameters used throughout Sec. IV and VI
// where stated: r = 5, k = 4.
var PaperParams = detect.Params{R: 5, K: 4}

// sampleRate picks a preprocessing rate: the paper's 0.5% on large inputs,
// raised on small ones so the histogram stays informative.
func sampleRate(n int) float64 {
	r := 5000.0 / float64(n)
	if r < 0.005 {
		r = 0.005
	}
	if r > 1 {
		r = 1
	}
	return r
}

// runCase executes one (dataset, planner, detector) configuration and
// returns its report.
func runCase(cfg Config, pts []geom.Point, planner plan.Planner, det detect.Kind) (*core.Report, error) {
	input, err := core.InputFromPoints(pts, 8192)
	if err != nil {
		return nil, err
	}
	return core.Run(context.Background(), input, core.Config{
		Params:  PaperParams,
		Planner: planner,
		PlanOpts: plan.Options{
			NumReducers:   cfg.Reducers,
			NumPartitions: cfg.Partitions,
			Detector:      det,
			Candidates:    plan.PaperCandidates(), // the figures are the paper's A
		},
		SampleRate: sampleRate(len(pts)),
		Seed:       cfg.Seed,
	})
}

// centralizedSeconds runs a centralized detector and converts its work to
// simulated seconds at the cluster work rate.
func centralizedSeconds(pts []geom.Point, kind detect.Kind, seed int64) float64 {
	res := core.DetectCentralized(pts, kind, PaperParams, seed)
	return float64(res.Stats.Cost()) / core.WorkRate
}

// Fig4 reproduces the Nested-Loop density-sensitivity experiment of
// Sec. IV-A: two equal-cardinality uniform datasets, the sparse one
// covering 4× the domain area of the dense one. The paper measures
// Nested-Loop ≈4.5× slower on D-Sparse.
func Fig4(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	const denseDensity = 0.4
	dense := synth.JitteredGrid(cfg.SweepN, denseDensity, cfg.Seed+1)
	sparse := synth.JitteredGrid(cfg.SweepN, denseDensity/4, cfg.Seed+2)

	sparseSec := centralizedSeconds(sparse, detect.NestedLoop, cfg.Seed)
	denseSec := centralizedSeconds(dense, detect.NestedLoop, cfg.Seed)
	fig := &Figure{
		ID:     "Fig. 4",
		Title:  "Sensitivity of Nested-Loop's performance to dataset density",
		XLabel: "dataset",
		YLabel: "execution time (simulated sec)",
		Series: []Series{{
			Label: "Nested-Loop",
			Points: []Point{
				{X: "D-Sparse", Y: sparseSec},
				{X: "D-Dense", Y: denseSec},
			},
		}},
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"D-Sparse/D-Dense ratio = %.2fx (paper: ≈4.5x; both datasets hold %d points, area ratio 4:1)",
		sparseSec/denseSec, cfg.SweepN))
	return fig, nil
}

// Fig5 reproduces the detector-vs-density sweep of Sec. IV-B: execution
// time of Cell-Based and Nested-Loop on 10k-point uniform datasets whose
// density varies from 0.01 to 100. Cell-Based wins at both extremes,
// Nested-Loop in the middle.
func Fig5(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	densities := []float64{0.01, 0.0316, 0.1, 0.316, 1, 3.16, 10, 31.6, 100}
	var cb, nl Series
	cb.Label, nl.Label = "Cell-Based", "Nested-Loop"
	for i, d := range densities {
		pts := synth.JitteredGrid(cfg.SweepN, d, cfg.Seed+int64(i))
		x := fmt.Sprintf("%g", d)
		cb.Points = append(cb.Points, Point{X: x, Y: centralizedSeconds(pts, detect.CellBased, cfg.Seed)})
		nl.Points = append(nl.Points, Point{X: x, Y: centralizedSeconds(pts, detect.NestedLoop, cfg.Seed)})
	}
	return &Figure{
		ID:     "Fig. 5",
		Title:  "Performance of detection algorithms w.r.t. data density",
		XLabel: "density measure",
		YLabel: "execution time (simulated sec)",
		Series: []Series{cb, nl},
		Notes: []string{
			"paper shape: Cell-Based cheaper at both density extremes, Nested-Loop cheaper in the intermediate band",
		},
	}, nil
}

// segmentPoints generates the four state segments at the configured scale.
func segmentPoints(cfg Config) map[string][]geom.Point {
	out := make(map[string][]geom.Point, len(synth.Segments))
	for i, kind := range synth.Segments {
		out[string(kind)] = synth.Segment(kind, cfg.SegmentN, cfg.Seed+100+int64(i))
	}
	return out
}

// fig7 runs the partitioning-effectiveness comparison with a fixed
// detector; shown as time relative to CDriven, as in the paper.
func fig7(cfg Config, det detect.Kind, id string) (*Figure, error) {
	cfg = cfg.withDefaults()
	segments := segmentPoints(cfg)
	planners := []plan.Planner{plan.Domain, plan.UniSpace, plan.DDriven, plan.CDriven}

	totals := map[string]map[string]float64{} // planner -> segment -> sec
	for _, p := range planners {
		totals[p.Name()] = map[string]float64{}
	}
	for _, kind := range synth.Segments {
		seg := string(kind)
		for _, p := range planners {
			rep, err := runCase(cfg, segments[seg], p, det)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", p.Name(), seg, err)
			}
			totals[p.Name()][seg] = seconds(rep.Simulated.Total())
		}
	}

	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Partitioning effectiveness for various distributions (%v detector)", det),
		XLabel: "dataset segment",
		YLabel: "time proportion to CDriven",
	}
	for _, p := range planners {
		s := Series{Label: p.Name()}
		for _, kind := range synth.Segments {
			seg := string(kind)
			s.Points = append(s.Points, Point{X: seg, Y: totals[p.Name()][seg] / totals["CDriven"][seg]})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper shape: CDriven = 1 everywhere; DDriven ≈ 1.5x; uniSpace and Domain up to ≈4-5x")
	return fig, nil
}

// Fig7a is the comparison under the Nested-Loop detector.
func Fig7a(cfg Config) (*Figure, error) { return fig7(cfg, detect.NestedLoop, "Fig. 7a") }

// Fig7b is the comparison under the Cell-Based detector.
func Fig7b(cfg Config) (*Figure, error) { return fig7(cfg, detect.CellBased, "Fig. 7b") }

// levelPoints generates the hierarchical scalability datasets.
func levelPoints(cfg Config) map[string][]geom.Point {
	out := make(map[string][]geom.Point, len(synth.Levels))
	for i, level := range synth.Levels {
		out[string(level)] = synth.Hierarchical(level, cfg.BaseN, cfg.Seed+200+int64(i))
	}
	return out
}

// fig8 runs the partitioning scalability comparison for one detector.
func fig8(cfg Config, det detect.Kind, id string) (*Figure, error) {
	cfg = cfg.withDefaults()
	levels := levelPoints(cfg)
	planners := []plan.Planner{plan.Domain, plan.UniSpace, plan.DDriven, plan.CDriven}

	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Partitioning scalability for varying data sizes (%v detector)", det),
		XLabel: "dataset level",
		YLabel: "time (simulated sec, paper plots log scale)",
	}
	for _, p := range planners {
		s := Series{Label: p.Name()}
		for _, level := range synth.Levels {
			rep, err := runCase(cfg, levels[string(level)], p, det)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", p.Name(), level, err)
			}
			s.Points = append(s.Points, Point{X: string(level), Y: seconds(rep.Simulated.Total())})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper shape: CDriven wins at every size; at Planet ≈6x over DDriven and ≈17x over Domain")
	return fig, nil
}

// Fig8a is the scalability comparison under the Nested-Loop detector.
func Fig8a(cfg Config) (*Figure, error) { return fig8(cfg, detect.NestedLoop, "Fig. 8a") }

// Fig8b is the scalability comparison under the Cell-Based detector.
func Fig8b(cfg Config) (*Figure, error) { return fig8(cfg, detect.CellBased, "Fig. 8b") }

// detectionMethods are the reducer-side alternatives of Sec. VI-C: the two
// fixed detectors under the most advanced single-tactic partitioning
// (CDriven) versus the full multi-tactic DMT.
type detectionMethod struct {
	label   string
	planner plan.Planner
	det     detect.Kind
}

func detectionMethods() []detectionMethod {
	return []detectionMethod{
		{"Nested-Loop", plan.CDriven, detect.NestedLoop},
		{"Cell-Based", plan.CDriven, detect.CellBased},
		{"DMT", plan.DMT, detect.Unspecified},
	}
}

// Fig9a reproduces the detection-method comparison across the four data
// distributions.
func Fig9a(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	segments := segmentPoints(cfg)
	fig := &Figure{
		ID:     "Fig. 9a",
		Title:  "Detection methods: effectiveness for varying distributions",
		XLabel: "dataset segment",
		YLabel: "time (simulated sec)",
	}
	for _, m := range detectionMethods() {
		s := Series{Label: m.label}
		for _, kind := range synth.Segments {
			rep, err := runCase(cfg, segments[string(kind)], m.planner, m.det)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", m.label, kind, err)
			}
			s.Points = append(s.Points, Point{X: string(kind), Y: seconds(rep.Simulated.Total())})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper shape: Cell-Based ≥2x faster than Nested-Loop on dense CA/NY; Nested-Loop wins on sparse OH; DMT stable and best overall")
	return fig, nil
}

// Fig9b reproduces the detection-method scalability comparison.
func Fig9b(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	levels := levelPoints(cfg)
	fig := &Figure{
		ID:     "Fig. 9b",
		Title:  "Detection methods: scalability for varying data sizes",
		XLabel: "dataset level",
		YLabel: "time (simulated sec, paper plots log scale)",
	}
	for _, m := range detectionMethods() {
		s := Series{Label: m.label}
		for _, level := range synth.Levels {
			rep, err := runCase(cfg, levels[string(level)], m.planner, m.det)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", m.label, level, err)
			}
			s.Points = append(s.Points, Point{X: string(level), Y: seconds(rep.Simulated.Total())})
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"paper shape: DMT consistently fastest; the margin grows with dataset size/skew")
	return fig, nil
}

// breakdownFigure renders a per-stage breakdown (preprocess/map/reduce) for
// a set of approaches on one dataset — the layout of Fig. 10. Shuffle time
// is folded into the map stage, as Hadoop attributes copy time to the
// map-side of the barrier.
func breakdownFigure(cfg Config, id, title string, pts []geom.Point, methods []detectionMethod) (*Figure, error) {
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "stage",
		YLabel: "time (simulated sec, paper plots log scale)",
	}
	for _, m := range methods {
		rep, err := runCase(cfg, pts, m.planner, m.det)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.label, err)
		}
		fig.Series = append(fig.Series, Series{
			Label: m.label,
			Points: []Point{
				{X: "Preprocess", Y: seconds(rep.Simulated.Preprocess)},
				{X: "Map", Y: seconds(rep.Simulated.Map + rep.Simulated.Shuffle)},
				{X: "Reduce", Y: seconds(rep.Simulated.Reduce)},
			},
		})
	}
	return fig, nil
}

// Fig10a reproduces the stage breakdown on the distorted terabyte-scale
// analog: the original data replicated 3× with jitter (Sec. VI-A).
func Fig10a(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	base := synth.Hierarchical(synth.LevelUS, cfg.BaseN, cfg.Seed+300)
	pts := synth.Distort(base, 3, PaperParams.R/2, cfg.Seed+301)
	// The 4x replication quadruples density everywhere; stretching the
	// coordinates by 2 restores the original density profile, so the
	// terabyte-analog keeps the paper's mix of dense regions and
	// "relatively sparse partitions for which Nested-Loop is more
	// appropriate".
	for i := range pts {
		for d := range pts[i].Coords {
			pts[i].Coords[d] *= 2
		}
	}
	methods := []detectionMethod{
		{"Domain + Cell-Based", plan.Domain, detect.CellBased},
		{"uniSpace + Cell-Based", plan.UniSpace, detect.CellBased},
		{"DDriven + Cell-Based", plan.DDriven, detect.CellBased},
		{"DMT", plan.DMT, detect.Unspecified},
	}
	fig, err := breakdownFigure(cfg, "Fig. 10a",
		"Overall approach: performance breakdown on the distorted (2TB-analog) dataset", pts, methods)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper shape: DMT pays more preprocessing than DDriven (Domain/uniSpace pay none), map times comparable, reduce up to 10x faster for DMT")
	return fig, nil
}

// Fig10b reproduces the stage breakdown on the TIGER analog.
func Fig10b(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	n := cfg.SegmentN * 2
	pts := synth.TigerLike(n, 800, 25, cfg.Seed+400)
	methods := []detectionMethod{
		{"CDriven + Nested-Loop", plan.CDriven, detect.NestedLoop},
		{"CDriven + Cell-Based", plan.CDriven, detect.CellBased},
		{"DMT", plan.DMT, detect.Unspecified},
	}
	fig, err := breakdownFigure(cfg, "Fig. 10b",
		"Overall approach: performance breakdown on the TIGER-analog dataset", pts, methods)
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper shape: DMT up to 20x faster than the single-tactic alternatives on the reduce stage")
	return fig, nil
}

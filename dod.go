// Package dod implements multi-tactic distributed distance-based outlier
// detection — a from-scratch Go reproduction of "Multi-Tactic Distance-based
// Outlier Detection" (Cao et al., ICDE 2017).
//
// A point p in a dataset D is a distance-threshold outlier iff it has fewer
// than K neighbors within distance R (Knorr & Ng). DOD finds all such
// outliers with a single-pass MapReduce job: the domain is partitioned into
// rectangles, each augmented with a supporting area (an R-expansion of its
// boundary) so every partition can be processed in isolation, and each
// partition runs the centralized detector that is cheapest for its density
// under the paper's cost models.
//
// The simplest entry point detects outliers in an in-memory dataset:
//
//	points := []dod.Point{ ... }
//	result, err := dod.Detect(points, dod.Config{R: 5, K: 4})
//
// Config selects the partitioning strategy (StrategyDMT by default — the
// paper's full multi-tactic optimizer), the detector candidate set, and the
// execution parameters. The returned Result carries the outlier IDs and an
// execution report with per-stage timings on both the in-process engine and
// a simulated 40-node cluster.
package dod

import (
	"context"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dod/internal/cluster"
	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/dshc"
	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/plan"
)

// Point is a d-dimensional data point with a caller-assigned unique ID.
type Point = geom.Point

// Rect is an axis-aligned hyper-rectangle.
type Rect = geom.Rect

// Detector names a centralized detection algorithm.
type Detector = detect.Kind

// The available detectors. NestedLoop and CellBased form the paper's
// candidate set; KDTree is an extension; BruteForce is the O(n²) reference.
const (
	BruteForce = detect.BruteForce
	NestedLoop = detect.NestedLoop
	CellBased  = detect.CellBased
	KDTree     = detect.KDTree
	// CellBasedL2 is an optimized Cell-Based variant (beyond the paper)
	// that restricts undecided-cell scans to the L1–L2 cell ring.
	CellBasedL2 = detect.CellBasedL2
	// ProxGraph is the exact proximity-graph tactic: a navigable neighbor
	// graph built once per partition answers threshold queries by graph
	// walk, falling back to verified scans so results stay bit-identical
	// to BruteForce. The grid-free structure survives high dimension.
	ProxGraph = detect.PGraph
	// SensSample is the approximate sensitivity-sampling tactic: verdicts
	// are estimated from a weighted sample in linear time. It requires
	// Config.AllowApprox.
	SensSample = detect.SSample
)

// Strategy names a partitioning strategy (Sec. VI-A). It implements
// flag.Value, so a *Strategy can be passed directly to flag.Var.
type Strategy string

// String returns the strategy's canonical name.
func (s Strategy) String() string { return string(s) }

// Set parses name into the receiver; it accepts any case and makes
// *Strategy a flag.Value.
func (s *Strategy) Set(name string) error {
	parsed, err := ParseStrategy(name)
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// The partitioning strategies evaluated in the paper.
const (
	// StrategyDomain is the no-supporting-area baseline; it needs a second
	// MapReduce job to settle border points.
	StrategyDomain Strategy = "Domain"
	// StrategyUniSpace tiles the domain with an equi-width grid plus
	// supporting areas.
	StrategyUniSpace Strategy = "uniSpace"
	// StrategyDDriven balances partition cardinality (the traditional
	// load-balancing assumption).
	StrategyDDriven Strategy = "DDriven"
	// StrategyCDriven balances modeled detection cost.
	StrategyCDriven Strategy = "CDriven"
	// StrategyDMT is the paper's density-aware multi-tactic optimizer:
	// DSHC partitioning, per-partition algorithm selection, cost-balanced
	// allocation.
	StrategyDMT Strategy = "DMT"
)

// Config controls a detection run. R and K are required; everything else
// has sensible defaults.
type Config struct {
	// R is the neighbor distance threshold (Def. 2.1).
	R float64
	// K is the neighbor count threshold: outliers have fewer than K
	// neighbors within R (Def. 2.2).
	K int

	// Strategy picks the partitioning strategy; default StrategyDMT.
	Strategy Strategy
	// Detector fixes the detection algorithm for single-tactic strategies
	// and is ignored by StrategyDMT (which picks per partition); default
	// CellBased.
	Detector Detector
	// Candidates overrides DMT's algorithm candidate set; default
	// {NestedLoop, CellBased}.
	Candidates []Detector
	// AllowApprox opts in to approximate detectors (those whose
	// Detector.Approximate() reports true, currently SensSample): without
	// it, an approximate Detector is rejected and approximate Candidates
	// are dropped from DMT's choice set, so every default-configured run
	// remains bit-identical to the exact reference. With it, verdicts may
	// differ from the exact answer within the sampling error bound.
	AllowApprox bool

	// NumReducers is the number of reduce tasks; default 8.
	NumReducers int
	// NumPartitions is the target partition count for grid/bisection
	// strategies; default 4×NumReducers.
	NumPartitions int
	// SampleRate is the preprocessing sampling rate Υ; default 0.005.
	// Rates this low need large datasets; small inputs should raise it.
	SampleRate float64
	// BucketsPerDim is the mini-bucket resolution; default 32.
	BucketsPerDim int
	// Tdiff, if positive, sets DSHC's absolute density-difference merge
	// threshold (Def. 5.2); by default a relative threshold is used.
	Tdiff float64
	// Seed drives all randomized components; runs are reproducible.
	Seed int64
	// Parallelism bounds concurrent task goroutines; default GOMAXPROCS.
	Parallelism int
	// PointsPerSplit sizes the map input splits; default 64Ki points.
	PointsPerSplit int
	// ExactSupport uses the exact Def. 3.2 supporting-area criterion
	// (rounded corners) instead of the default Def. 3.3 rectangular
	// expansion, trading mapping cost for less replication.
	ExactSupport bool

	// Engine selects where detection tasks execute: EngineLocal (the
	// default, in-process goroutines) or EngineCluster (shipped to the
	// Coordinator's workers over the network). Results are byte-identical
	// across engines on the same seed. EngineCluster requires a
	// single-pass strategy; StrategyDomain stays local-only.
	Engine Engine
	// Coordinator is the cluster control plane EngineCluster ships tasks
	// to; required for (and only used by) that engine.
	Coordinator *Coordinator
}

// ParseDetector resolves a detector name ("NestedLoop", "cell-based",
// "kdtree", ...) to its Detector; matching ignores case and hyphens. It is
// the inverse of Detector.String, and Detector implements flag.Value, so
// command-line tools can accept detector flags without hand-rolled
// switches. Unknown names return an error matching ErrBadParams.
func ParseDetector(name string) (Detector, error) { return detect.ParseKind(name) }

// ParseStrategy resolves a strategy name ("DMT", "unispace", ...) to its
// Strategy; matching ignores case. It is the inverse of Strategy.String.
// Unknown names return an error matching ErrBadParams.
func ParseStrategy(name string) (Strategy, error) {
	all := []Strategy{StrategyDomain, StrategyUniSpace, StrategyDDriven, StrategyCDriven, StrategyDMT}
	for _, s := range all {
		if strings.EqualFold(name, string(s)) {
			return s, nil
		}
	}
	return "", errs.BadParams("unknown strategy %q", name)
}

// Result is the outcome of a detection run.
type Result struct {
	// OutlierIDs are the IDs of all distance-threshold outliers, sorted.
	OutlierIDs []uint64
	// Report profiles the distributed execution.
	Report *core.Report
}

// TraceSpan is one timed stage of a detection run: "preprocess", "plan",
// "map", "shuffle", "reduce", or one "partition.detect" per partition.
type TraceSpan struct {
	// Name identifies the stage.
	Name string
	// Start is the stage's wall-clock start.
	Start time.Time
	// Duration is the stage's length.
	Duration time.Duration
	// Attrs annotate the stage: partition id, chosen detector, record and
	// distance-computation counts, ...
	Attrs map[string]string
}

// Trace returns the run's execution trace: every pipeline stage and every
// per-partition detector invocation, in recording order. It returns nil if
// the run recorded no trace.
func (r *Result) Trace() []TraceSpan {
	if r.Report == nil || r.Report.Trace == nil {
		return nil
	}
	spans := r.Report.Trace.Spans()
	out := make([]TraceSpan, len(spans))
	for i, s := range spans {
		ts := TraceSpan{Name: s.Name, Start: s.Start, Duration: s.Duration}
		if len(s.Attrs) > 0 {
			ts.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ts.Attrs[a.Key] = a.Value
			}
		}
		out[i] = ts
	}
	return out
}

// PartitionDetail pairs one partition's plan entry (what the planner
// predicted) with its trace record (what detection actually cost),
// making planner picks auditable: a partition whose actual DistComps dwarfs
// its EstCost is a model miss.
type PartitionDetail struct {
	ID        int      // partition id
	Algo      Detector // the tactic the plan assigned
	Reducer   int      // the reducer the allocation assigned
	EstCount  float64  // estimated cardinality (from the sample histogram)
	EstCost   float64  // modeled detection cost under Algo
	Core      int64    // actual core points detected over
	Support   int64    // actual support points shipped
	DistComps int64    // actual distance computations spent
	Outliers  int64    // outliers found in this partition
}

// PartitionDetails merges the run's plan with its per-partition trace
// spans into one auditable table, sorted by partition ID. Partitions never
// executed (empty core) keep zeroed actuals. Returns nil if the run kept
// no plan.
func (r *Result) PartitionDetails() []PartitionDetail {
	if r.Report == nil || r.Report.Plan == nil {
		return nil
	}
	byID := make(map[int]*PartitionDetail, len(r.Report.Plan.Partitions))
	out := make([]PartitionDetail, 0, len(r.Report.Plan.Partitions))
	for _, p := range r.Report.Plan.Partitions {
		out = append(out, PartitionDetail{
			ID:       p.ID,
			Algo:     p.Algo,
			Reducer:  p.Reducer,
			EstCount: p.EstCount,
			EstCost:  p.EstCost,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for i := range out {
		byID[out[i].ID] = &out[i]
	}
	for _, s := range r.Trace() {
		if s.Name != "partition.detect" {
			continue
		}
		id, err := strconv.Atoi(s.Attrs["partition"])
		if err != nil {
			continue
		}
		d, ok := byID[id]
		if !ok {
			continue
		}
		d.Core, _ = strconv.ParseInt(s.Attrs["core"], 10, 64)
		d.Support, _ = strconv.ParseInt(s.Attrs["support"], 10, 64)
		d.DistComps, _ = strconv.ParseInt(s.Attrs["distcomps"], 10, 64)
		d.Outliers, _ = strconv.ParseInt(s.Attrs["outliers"], 10, 64)
	}
	return out
}

// IsOutlier reports whether the given point ID was classified an outlier.
func (r *Result) IsOutlier(id uint64) bool {
	lo, hi := 0, len(r.OutlierIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.OutlierIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r.OutlierIDs) && r.OutlierIDs[lo] == id
}

// Detect finds all distance-threshold outliers in points. Point IDs must be
// unique; verdicts refer to them. Empty datasets and duplicate IDs are
// rejected (a duplicated ID would silently corrupt neighbor counts, since
// detectors treat equal IDs as the same point): the returned errors match
// ErrEmptyDataset and ErrDuplicateID.
func Detect(points []Point, cfg Config) (*Result, error) {
	return DetectContext(context.Background(), points, cfg)
}

// DetectContext is Detect with cooperative cancellation: once ctx is done,
// the run stops dispatching MapReduce tasks, stops between pipeline stages
// and between reduce key groups, and returns ctx.Err(). Work already
// running on worker goroutines finishes its current partition before the
// call returns.
func DetectContext(ctx context.Context, points []Point, cfg Config) (*Result, error) {
	if err := validatePoints(points); err != nil {
		return nil, err
	}
	if cfg.BucketsPerDim == 0 {
		// Size mini buckets so density estimates stay statistically stable
		// (~25 expected points per bucket).
		b := int(math.Sqrt(float64(len(points)) / 25))
		if b < 8 {
			b = 8
		}
		if b > 40 {
			b = 40
		}
		cfg.BucketsPerDim = b
	}
	coreCfg, err := cfg.toCore()
	if err != nil {
		return nil, err
	}
	input, err := core.InputFromPoints(points, cfg.PointsPerSplit)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(ctx, input, coreCfg)
	if err != nil {
		// A cancelled run surfaces as exactly ctx.Err(), however deep in
		// the pipeline the cancellation was observed.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return &Result{OutlierIDs: rep.Outliers, Report: rep}, nil
}

// DetectCentralized runs one centralized detector on a single machine with
// no partitioning — the right choice for small datasets and the reference
// for the distributed path. It is a thin wrapper over the same parameter
// and dataset validation Detect uses: bad parameters match ErrBadParams,
// an empty dataset is ErrEmptyDataset, and duplicate IDs are
// ErrDuplicateID, exactly as for every other entry point.
func DetectCentralized(points []Point, detector Detector, r float64, k int) ([]uint64, error) {
	params, err := Config{R: r, K: k}.params()
	if err != nil {
		return nil, err
	}
	if err := validatePoints(points); err != nil {
		return nil, err
	}
	res := core.DetectCentralized(points, detector, params, 1)
	ids := append([]uint64(nil), res.OutlierIDs...)
	sortIDs(ids)
	return ids, nil
}

func sortIDs(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// validatePoints rejects the inputs the detectors cannot give meaningful
// answers for: empty datasets, and every set checkPoints rejects.
func validatePoints(points []Point) error {
	if len(points) == 0 {
		return errs.ErrEmptyDataset
	}
	return checkPoints(points)
}

// checkPoints is the one point-set check of every batch entry point. It
// rejects points whose dimensionality differs from the first point's
// (*DimMismatchError), zero-dimensional points (ErrBadParams, as
// DetectBatch rejects a Dim of 0) and repeated IDs (*DuplicateIDError).
// An empty set passes; each entry point decides what it means.
func checkPoints(points []Point) error {
	if len(points) == 0 {
		return nil
	}
	dim := points[0].Dim()
	if dim < 1 {
		return errs.BadParams("points must have dimension >= 1, got %d", dim)
	}
	seen := make(map[uint64]struct{}, len(points))
	for _, p := range points {
		if p.Dim() != dim {
			return &errs.DimMismatchError{ID: p.ID, Got: p.Dim(), Want: dim}
		}
		if _, dup := seen[p.ID]; dup {
			return &errs.DuplicateIDError{ID: p.ID}
		}
		seen[p.ID] = struct{}{}
	}
	return nil
}

// params validates and returns the detection parameters. Every public
// entry point — Detect, DetectCentralized, DetectBatch — funnels its R/K
// validation through here so they reject bad parameters identically.
func (cfg Config) params() (detect.Params, error) {
	params := detect.Params{R: cfg.R, K: cfg.K}
	if err := params.Validate(); err != nil {
		return detect.Params{}, err
	}
	return params, nil
}

// toCore translates the public config into the driver config.
func (cfg Config) toCore() (core.Config, error) {
	params, err := cfg.params()
	if err != nil {
		return core.Config{}, err
	}
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = StrategyDMT
	}
	planner, err := plan.ByName(string(strategy))
	if err != nil {
		return core.Config{}, err
	}
	detector := cfg.Detector
	if detector == detect.Unspecified {
		detector = CellBased
	}
	if detector.Approximate() && !cfg.AllowApprox {
		return core.Config{}, errs.BadParams("detector %v is approximate; set Config.AllowApprox to opt in", detector)
	}
	reducers := cfg.NumReducers
	if reducers < 1 {
		reducers = 8
	}
	candidates := make([]detect.Kind, len(cfg.Candidates))
	copy(candidates, cfg.Candidates)
	parallelism := cfg.Parallelism
	var executorFor func(*plan.Plan, detect.Params, int64) (mapreduce.Executor, error)
	switch cfg.Engine {
	case "", EngineLocal:
		if cfg.Coordinator != nil {
			return core.Config{}, errs.BadParams("Config.Coordinator is set but Engine is %q; set Engine: EngineCluster", EngineLocal)
		}
	case EngineCluster:
		if cfg.Coordinator == nil {
			return core.Config{}, errs.BadParams("EngineCluster requires a Coordinator")
		}
		executorFor = core.ClusterExecutorFor(cfg.Coordinator.c)
		if parallelism <= 0 {
			// The driver's parallelism bounds in-flight dispatches; with
			// remote workers doing the actual computing, hold many more
			// tasks in flight than this machine has cores.
			parallelism = 64
		}
	default:
		return core.Config{}, errs.BadParams("unknown engine %q", cfg.Engine)
	}
	return core.Config{
		Params:  params,
		Planner: planner,
		PlanOpts: plan.Options{
			NumReducers:   reducers,
			NumPartitions: cfg.NumPartitions,
			Detector:      detector,
			Candidates:    candidates,
			DSHC:          dshc.Params{Tdiff: cfg.Tdiff},
			ExactSupport:  cfg.ExactSupport,
			AllowApprox:   cfg.AllowApprox,
		},
		SampleRate:    cfg.SampleRate,
		BucketsPerDim: cfg.BucketsPerDim,
		Seed:          cfg.Seed,
		Parallelism:   parallelism,
		ExecutorFor:   executorFor,
		Cluster:       cluster.PaperCluster,
	}, nil
}

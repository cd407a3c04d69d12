package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/dist"
	"dod/internal/geom"
	"dod/internal/obs"
	"dod/internal/plan"
	"dod/internal/synth"
)

// The -json mode measures the detection kernels and one end-to-end pipeline
// run, emitting a machine-readable record per benchmark: re-running
// `dodbench -json` on the same hardware class and diffing two documents
// shows whether a change moved the kernels' hot paths. The serving tiers
// and the committed trajectory belong to the bench/ module.

// benchFile is the top-level JSON document.
type benchFile struct {
	Schema    string         `json:"schema"` // "dodbench/v1"
	Generated string         `json:"generated"`
	GoVersion string         `json:"go"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	MaxProcs  int            `json:"gomaxprocs"`
	Params    benchParams    `json:"params"`
	Kernels   []kernelRecord `json:"kernels"`
	// Parallel re-measures every kernel at GOMAXPROCS workers via
	// detect.DetectSetParallel; speedup_vs_seq compares against the
	// sequential record of the same case in Kernels. On a single-core
	// machine the section still appears (speedup ≈ 1), so the schema is
	// stable across hardware.
	Parallel []parallelRecord `json:"parallel"`
	Pipeline pipelineRecord   `json:"pipeline"`
	Dist     distRecord       `json:"dist"`
	// HighDim measures the detector tactics on a clustered 32-dimensional
	// workload — the regime where grid enumeration and kd-tree pruning
	// collapse — and records which tactic the DMT planner routes to there.
	HighDim highDimSection `json:"highdim"`
}

type benchParams struct {
	R float64 `json:"r"`
	K int     `json:"k"`
}

// kernelRecord is one detector benchmark measured via testing.Benchmark.
type kernelRecord struct {
	Name         string  `json:"name"`
	Detector     string  `json:"detector"`
	N            int     `json:"n"`
	Dim          int     `json:"dim"`
	Iters        int     `json:"iters"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	DistComps    int64   `json:"dist_comps"` // per detection pass
	Outliers     int     `json:"outliers"`   // result size (sanity anchor)
	PointsPerSec float64 `json:"points_per_sec"`
}

// parallelRecord is a kernelRecord measured through the tiled parallel
// entry point, plus the worker count and the speedup over the sequential
// measurement of the same case.
type parallelRecord struct {
	kernelRecord
	Workers int     `json:"workers"`
	Speedup float64 `json:"speedup_vs_seq"`
}

// pipelineRecord is one traced end-to-end core.Run.
type pipelineRecord struct {
	Planner       string       `json:"planner"`
	Detector      string       `json:"detector"`
	Points        int          `json:"points"`
	Reducers      int          `json:"reducers"`
	Outliers      int          `json:"outliers"`
	DistComps     int64        `json:"dist_comps"`
	PointsIndexed int64        `json:"points_indexed"`
	ShuffleBytes  int64        `json:"shuffle_bytes"`
	WallMs        float64      `json:"wall_ms"`
	Spans         []spanRecord `json:"spans"`
}

// spanRecord flattens an obs.Trace span. Per-partition detect spans are
// aggregated by the caller into one record per stage name, keeping the
// artifact size independent of the partition count.
type spanRecord struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
}

// distRecord compares the same detection run on the in-process engine and
// on a loopback cluster (1 coordinator + workers over real HTTP on this
// machine). cluster_wall_ms includes serialization and loopback transport,
// so the gap to local_wall_ms is the runtime's overhead floor;
// bytes_shipped/bytes_collected are actual wire bytes.
type distRecord struct {
	Workers        int     `json:"workers"`
	Points         int     `json:"points"`
	Outliers       int     `json:"outliers"`
	LocalWallMs    float64 `json:"local_wall_ms"`
	ClusterWallMs  float64 `json:"cluster_wall_ms"`
	ShuffleBytes   int64   `json:"shuffle_bytes"`
	BytesShipped   int64   `json:"bytes_shipped"`
	BytesCollected int64   `json:"bytes_collected"`
	Dispatches     int64   `json:"dispatches"`
	Match          bool    `json:"match"` // cluster outliers byte-identical to local
}

// highDimSection documents the high-dimensional tactic comparison: one
// detection pass per tactic over the same planted-outlier workload, plus
// the DMT planner's routing decision on it.
type highDimSection struct {
	N       int     `json:"n"`
	Dim     int     `json:"dim"`
	R       float64 `json:"r"`
	K       int     `json:"k"`
	Planted int     `json:"planted_outliers"`
	// Tactics holds one record per exact detector; MatchBrute asserts the
	// tactic reproduced BruteForce's outlier set bit-for-bit.
	Tactics []highDimTactic `json:"tactics"`
	Planner highDimPlanner  `json:"planner"`
}

type highDimTactic struct {
	Detector   string  `json:"detector"`
	DistComps  int64   `json:"dist_comps"`
	Outliers   int     `json:"outliers"`
	MatchBrute bool    `json:"match_brute"`
	WallMs     float64 `json:"wall_ms"`
}

// highDimPlanner records the DMT run over the same workload: which tactic
// the planner assigned per partition and whether the routed plan beat the
// best single-tactic alternative on distance computations.
type highDimPlanner struct {
	Candidates  []string       `json:"candidates"`
	PicksByAlgo map[string]int `json:"picks_by_algo"`
	DistComps   int64          `json:"dist_comps"`
	Outliers    int            `json:"outliers"`
	// Single-tactic runs of the same pipeline, for the routing payoff.
	NestedLoopComps int64 `json:"nestedloop_dist_comps"`
	KDTreeComps     int64 `json:"kdtree_dist_comps"`
	// Wins: the DMT-routed plan spent fewer distance computations than
	// the best of the single-tactic alternatives.
	Wins bool `json:"wins"`
}

// benchCases mirrors internal/detect/bench_test.go so the committed JSON
// trajectory and `go test -bench` measure the same kernels.
type benchCase struct {
	name string
	kind detect.Kind
	pts  func() []geom.Point
	n    int
	dim  int
}

func jsonBenchCases() []benchCase {
	ma := func(n int) func() []geom.Point {
		return func() []geom.Point { return synth.Segment(synth.Massachusetts, n, 3) }
	}
	cloud3 := func(n int) func() []geom.Point {
		return func() []geom.Point { return synth.GaussianCloud(n, 3, 17) }
	}
	return []benchCase{
		{"NestedLoop2D/n=2000", detect.NestedLoop, ma(2000), 2000, 2},
		{"NestedLoop2D/n=8000", detect.NestedLoop, ma(8000), 8000, 2},
		{"CellBased2D/n=2000", detect.CellBased, ma(2000), 2000, 2},
		{"CellBased2D/n=8000", detect.CellBased, ma(8000), 8000, 2},
		{"CellBasedL2_2D/n=8000", detect.CellBasedL2, ma(8000), 8000, 2},
		{"KDTree2D/n=8000", detect.KDTree, ma(8000), 8000, 2},
		{"Pivot2D/n=8000", detect.Pivot, ma(8000), 8000, 2},
		{"CellBased3D/n=8000", detect.CellBased, cloud3(8000), 8000, 3},
		{"ProxGraph2D/n=8000", detect.PGraph, ma(8000), 8000, 2},
	}
}

// jsonParams matches the kernel benchmarks in internal/detect: r=5, k=4 on
// the segment analogs (the paper's Sec. VI operating point).
var jsonParams = detect.Params{R: 5, K: 4}

func measureKernel(c benchCase) kernelRecord {
	pts := c.pts()
	set := geom.PointSetOf(pts)
	d := detect.New(c.kind, 7)
	// One un-timed pass pins the deterministic work counters and result.
	ref := detect.DetectSet(d, set, set.Len(), jsonParams)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			detect.DetectSet(d, set, set.Len(), jsonParams)
		}
	})
	nsPerOp := res.NsPerOp()
	rec := kernelRecord{
		Name:        c.name,
		Detector:    c.kind.String(),
		N:           c.n,
		Dim:         c.dim,
		Iters:       res.N,
		NsPerOp:     nsPerOp,
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		DistComps:   ref.Stats.DistComps,
		Outliers:    len(ref.OutlierIDs),
	}
	if nsPerOp > 0 {
		rec.PointsPerSec = float64(c.n) * 1e9 / float64(nsPerOp)
	}
	return rec
}

// measureKernelParallel benchmarks one tiled kernel at the given worker
// count. seqNs is the sequential ns/op of the same case, for the speedup
// ratio; the deterministic counters (DistComps, Outliers) are asserted
// identical to the sequential pass, so a drifting tile merge shows up in
// the committed artifact as well as in tests.
func measureKernelParallel(c benchCase, workers int, seqNs int64) parallelRecord {
	pts := c.pts()
	set := geom.PointSetOf(pts)
	d := detect.New(c.kind, 7)
	seqRef := detect.DetectSet(d, set, set.Len(), jsonParams)
	ref := detect.DetectSetParallel(d, set, set.Len(), jsonParams, workers)
	if ref.Stats.DistComps != seqRef.Stats.DistComps || len(ref.OutlierIDs) != len(seqRef.OutlierIDs) {
		// The parallel kernels are contractually bit-identical; refuse to
		// record a baseline that violates it.
		panic(fmt.Sprintf("%s: parallel result diverged from sequential", c.name))
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			detect.DetectSetParallel(d, set, set.Len(), jsonParams, workers)
		}
	})
	nsPerOp := res.NsPerOp()
	rec := parallelRecord{
		kernelRecord: kernelRecord{
			Name:        c.name,
			Detector:    c.kind.String(),
			N:           c.n,
			Dim:         c.dim,
			Iters:       res.N,
			NsPerOp:     nsPerOp,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			DistComps:   ref.Stats.DistComps,
			Outliers:    len(ref.OutlierIDs),
		},
		Workers: workers,
	}
	if nsPerOp > 0 {
		rec.PointsPerSec = float64(c.n) * 1e9 / float64(nsPerOp)
		rec.Speedup = float64(seqNs) / float64(nsPerOp)
	}
	return rec
}

// runParCheck is the CI speedup gate: it benchmarks the Cell-Based kernel
// sequentially and tiled at GOMAXPROCS workers, verifies bit-identity, and
// fails if the parallel/sequential throughput ratio falls below min. CI
// runs it at GOMAXPROCS=1 (min ~0.9: tiling must never cost much when
// there is nothing to parallelize) and GOMAXPROCS=4 (min ~2: the tiles
// must actually scale).
func runParCheck(n int, min float64) error {
	workers := runtime.GOMAXPROCS(0)
	pts := synth.Segment(synth.Massachusetts, n, 3)
	set := geom.PointSetOf(pts)
	d := detect.New(detect.CellBased, 7)

	seqRef := detect.DetectSet(d, set, set.Len(), jsonParams)
	parRef := detect.DetectSetParallel(d, set, set.Len(), jsonParams, workers)
	if len(seqRef.OutlierIDs) != len(parRef.OutlierIDs) || seqRef.Stats != parRef.Stats {
		return fmt.Errorf("parcheck: parallel result diverged from sequential (seq %d outliers %+v, par %d outliers %+v)",
			len(seqRef.OutlierIDs), seqRef.Stats, len(parRef.OutlierIDs), parRef.Stats)
	}
	for i := range seqRef.OutlierIDs {
		if seqRef.OutlierIDs[i] != parRef.OutlierIDs[i] {
			return fmt.Errorf("parcheck: outlier %d differs: seq %d, par %d", i, seqRef.OutlierIDs[i], parRef.OutlierIDs[i])
		}
	}

	seq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			detect.DetectSet(d, set, set.Len(), jsonParams)
		}
	})
	par := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			detect.DetectSetParallel(d, set, set.Len(), jsonParams, workers)
		}
	})
	ratio := float64(seq.NsPerOp()) / float64(par.NsPerOp())
	fmt.Printf("dodbench: parcheck GOMAXPROCS=%d n=%d seq=%v/op par=%v/op ratio=%.2f min=%.2f\n",
		workers, n, time.Duration(seq.NsPerOp()), time.Duration(par.NsPerOp()), ratio, min)
	if ratio < min {
		return fmt.Errorf("parcheck: parallel/sequential ratio %.2f below minimum %.2f at GOMAXPROCS=%d", ratio, min, workers)
	}
	return nil
}

// measureHighDim runs the 32-dimensional planted-outlier sphere workload
// (synth.HighDimUniform — unit-norm embedding geometry, where no
// axis-aligned box can prune a query ball) through every exact tactic
// that survives high dimension (Cell-Based's 3^d cell enumeration
// overflows at d=32, so it is excluded) and through the DMT pipeline
// with the proximity graph in the candidate set. The committed record is
// the evidence that the planner routes high-dimensional partitions to
// the graph tactic and that the routing pays off.
func measureHighDim(cfg benchRunConfig) (highDimSection, error) {
	const n, dim = 16000, 32
	params := detect.Params{R: 4, K: 4}
	pts, planted := synth.HighDimUniform(n, dim, params.R, 0.005, 3)
	set := geom.PointSetOf(pts)

	sec := highDimSection{N: n, Dim: dim, R: params.R, K: params.K, Planted: len(planted)}

	var bruteIDs []uint64
	for _, kind := range []detect.Kind{detect.BruteForce, detect.NestedLoop, detect.KDTree, detect.PGraph} {
		fmt.Fprintf(os.Stderr, "dodbench: highdim %s (n=%d d=%d)\n", kind, n, dim)
		start := time.Now()
		res := detect.DetectSet(detect.New(kind, 7), set, set.Len(), params)
		wall := time.Since(start)
		if kind == detect.BruteForce {
			bruteIDs = res.OutlierIDs
		}
		match := len(res.OutlierIDs) == len(bruteIDs)
		for i := 0; match && i < len(bruteIDs); i++ {
			match = res.OutlierIDs[i] == bruteIDs[i]
		}
		if !match {
			return sec, fmt.Errorf("highdim: %s diverged from BruteForce (%d vs %d outliers)",
				kind, len(res.OutlierIDs), len(bruteIDs))
		}
		sec.Tactics = append(sec.Tactics, highDimTactic{
			Detector:   kind.String(),
			DistComps:  res.Stats.DistComps,
			Outliers:   len(res.OutlierIDs),
			MatchBrute: match,
			WallMs:     float64(wall) / float64(time.Millisecond),
		})
	}

	input, err := core.InputFromPoints(pts, 8192)
	if err != nil {
		return sec, err
	}
	// On the sphere workload r spans the whole domain in every coordinate,
	// so each partition's supporting area covers essentially all of it:
	// every partition ships ~n points regardless of the split. Fine
	// partitioning therefore buys no locality and multiplies per-partition
	// index build cost, so the pipeline runs with a deliberately coarse
	// two-partition plan.
	runWith := func(cands []detect.Kind) (*core.Report, error) {
		return core.Run(context.Background(), input, core.Config{
			Params:  params,
			Planner: plan.DMT,
			PlanOpts: plan.Options{
				NumReducers:   2,
				NumPartitions: 2,
				Candidates:    cands,
			},
			SampleRate:  1,
			Seed:        cfg.seed,
			Parallelism: cfg.parallelism,
		})
	}
	cands := []detect.Kind{detect.NestedLoop, detect.KDTree, detect.PGraph}
	fmt.Fprintf(os.Stderr, "dodbench: highdim DMT pipeline (candidates %v)\n", cands)
	dmtRep, err := runWith(cands)
	if err != nil {
		return sec, err
	}
	nlRep, err := runWith([]detect.Kind{detect.NestedLoop})
	if err != nil {
		return sec, err
	}
	kdRep, err := runWith([]detect.Kind{detect.KDTree})
	if err != nil {
		return sec, err
	}

	pl := highDimPlanner{
		PicksByAlgo:     map[string]int{},
		DistComps:       dmtRep.DistComps,
		Outliers:        len(dmtRep.Outliers),
		NestedLoopComps: nlRep.DistComps,
		KDTreeComps:     kdRep.DistComps,
	}
	for _, k := range cands {
		pl.Candidates = append(pl.Candidates, k.String())
	}
	for _, p := range dmtRep.Plan.Partitions {
		pl.PicksByAlgo[p.Algo.String()]++
	}
	best := pl.NestedLoopComps
	if pl.KDTreeComps < best {
		best = pl.KDTreeComps
	}
	pl.Wins = pl.DistComps < best
	sec.Planner = pl
	return sec, nil
}

// runGraphCheck is the CI exactness gate for the proximity-graph tactic:
// on fixed seeds it compares Prox-Graph against BruteForce on a low- and a
// high-dimensional workload, sequential and tiled, and fails on the first
// byte that differs. The certification fallback makes the graph walk
// exact by construction; this gate catches any regression in that
// argument at the kernel boundary.
func runGraphCheck(n int) error {
	seeds := []int64{1, 7, 42, 1000003}
	workers := runtime.GOMAXPROCS(0)
	type workload struct {
		name   string
		pts    []geom.Point
		params detect.Params
	}
	workloads := []workload{
		{"segment2d", synth.Segment(synth.Massachusetts, n, 3), detect.Params{R: 5, K: 4}},
	}
	hd, _ := synth.HighDimPlanted(n/2, 32, 4, 0.02, 11)
	workloads = append(workloads, workload{"planted32d", hd, detect.Params{R: 4, K: 4}})

	for _, w := range workloads {
		set := geom.PointSetOf(w.pts)
		for _, seed := range seeds {
			brute := detect.DetectSet(detect.New(detect.BruteForce, seed), set, set.Len(), w.params)
			seq := detect.DetectSet(detect.New(detect.PGraph, seed), set, set.Len(), w.params)
			if len(seq.OutlierIDs) != len(brute.OutlierIDs) {
				return fmt.Errorf("graphcheck %s seed %d: %d outliers, brute %d",
					w.name, seed, len(seq.OutlierIDs), len(brute.OutlierIDs))
			}
			for i := range brute.OutlierIDs {
				if seq.OutlierIDs[i] != brute.OutlierIDs[i] {
					return fmt.Errorf("graphcheck %s seed %d: outlier %d differs: graph %d, brute %d",
						w.name, seed, i, seq.OutlierIDs[i], brute.OutlierIDs[i])
				}
			}
			par := detect.DetectSetParallel(detect.New(detect.PGraph, seed), set, set.Len(), w.params, workers)
			if par.Stats != seq.Stats || len(par.OutlierIDs) != len(seq.OutlierIDs) {
				return fmt.Errorf("graphcheck %s seed %d: parallel diverged (seq %+v, par %+v)",
					w.name, seed, seq.Stats, par.Stats)
			}
			for i := range seq.OutlierIDs {
				if par.OutlierIDs[i] != seq.OutlierIDs[i] {
					return fmt.Errorf("graphcheck %s seed %d: parallel outlier %d differs", w.name, seed, i)
				}
			}
			fmt.Printf("dodbench: graphcheck %s seed=%d ok (%d outliers, graph %d comps vs brute %d)\n",
				w.name, seed, len(seq.OutlierIDs), seq.Stats.DistComps, brute.Stats.DistComps)
		}
	}
	return nil
}

// measurePipeline runs one canonical distributed detection (DMT planner,
// Cell-Based partitions) and folds its trace into per-stage span totals.
func measurePipeline(cfg benchRunConfig) (pipelineRecord, error) {
	pts := synth.Segment(synth.Massachusetts, cfg.points, 3)
	input, err := core.InputFromPoints(pts, 8192)
	if err != nil {
		return pipelineRecord{}, err
	}
	start := time.Now()
	rep, err := core.Run(context.Background(), input, core.Config{
		Params:  jsonParams,
		Planner: plan.DMT,
		PlanOpts: plan.Options{
			NumReducers: cfg.reducers,
			Detector:    detect.CellBased,
		},
		SampleRate:  1,
		Seed:        cfg.seed,
		Parallelism: cfg.parallelism,
	})
	if err != nil {
		return pipelineRecord{}, err
	}
	wall := time.Since(start)

	rec := pipelineRecord{
		Planner:       plan.DMT.Name(),
		Detector:      detect.CellBased.String(),
		Points:        len(pts),
		Reducers:      cfg.reducers,
		Outliers:      len(rep.Outliers),
		DistComps:     rep.DistComps,
		PointsIndexed: rep.PointsIndexed,
		ShuffleBytes:  rep.ShuffleBytes,
		WallMs:        float64(wall) / float64(time.Millisecond),
	}
	rec.Spans = aggregateSpans(rep.Trace)
	return rec, nil
}

// measureDist runs the canonical pipeline twice — in-process and on a
// loopback cluster with distWorkers workers — and records the comparison.
func measureDist(cfg benchRunConfig) (distRecord, error) {
	const distWorkers = 4
	pts := synth.Segment(synth.Massachusetts, cfg.points, 3)
	input, err := core.InputFromPoints(pts, 8192)
	if err != nil {
		return distRecord{}, err
	}
	runCfg := core.Config{
		Params:  jsonParams,
		Planner: plan.DMT,
		PlanOpts: plan.Options{
			NumReducers: cfg.reducers,
			Detector:    detect.CellBased,
		},
		SampleRate:  1,
		Seed:        cfg.seed,
		Parallelism: cfg.parallelism,
	}

	start := time.Now()
	localRep, err := core.Run(context.Background(), input, runCfg)
	if err != nil {
		return distRecord{}, err
	}
	localWall := time.Since(start)

	coord, err := dist.NewCoordinator(dist.Config{})
	if err != nil {
		return distRecord{}, err
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < distWorkers; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Coordinator: coord.URL(),
			Name:        fmt.Sprintf("bench-%d", i),
		})
		if err != nil {
			return distRecord{}, err
		}
		go w.Run(ctx) //nolint:errcheck
	}
	if err := coord.WaitForWorkers(ctx, distWorkers); err != nil {
		return distRecord{}, err
	}

	runCfg.ExecutorFor = core.ClusterExecutorFor(coord)
	start = time.Now()
	clusterRep, err := core.Run(context.Background(), input, runCfg)
	if err != nil {
		return distRecord{}, err
	}
	clusterWall := time.Since(start)

	match := len(localRep.Outliers) == len(clusterRep.Outliers)
	for i := 0; match && i < len(localRep.Outliers); i++ {
		match = localRep.Outliers[i] == clusterRep.Outliers[i]
	}
	st := coord.Stats()
	return distRecord{
		Workers:        distWorkers,
		Points:         len(pts),
		Outliers:       len(clusterRep.Outliers),
		LocalWallMs:    float64(localWall) / float64(time.Millisecond),
		ClusterWallMs:  float64(clusterWall) / float64(time.Millisecond),
		ShuffleBytes:   clusterRep.ShuffleBytes,
		BytesShipped:   st.BytesShipped,
		BytesCollected: st.BytesCollected,
		Dispatches:     st.Dispatches,
		Match:          match,
	}, nil
}

// aggregateSpans sums span durations by name, in first-appearance order.
func aggregateSpans(tr *obs.Trace) []spanRecord {
	var out []spanRecord
	byName := map[string]int{}
	for _, sp := range tr.Spans() {
		i, ok := byName[sp.Name]
		if !ok {
			i = len(out)
			byName[sp.Name] = i
			out = append(out, spanRecord{Name: sp.Name})
		}
		out[i].Count++
		out[i].TotalMs += float64(sp.Duration) / float64(time.Millisecond)
	}
	return out
}

type benchRunConfig struct {
	points      int
	reducers    int
	seed        int64
	parallelism int
}

// runJSONBench measures every kernel plus the canonical pipeline and writes
// the document to path ("-" for stdout).
func runJSONBench(cfg benchRunConfig, path string) error {
	doc := benchFile{
		Schema:    "dodbench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Params:    benchParams{R: jsonParams.R, K: jsonParams.K},
	}
	seqNs := map[string]int64{}
	for _, c := range jsonBenchCases() {
		fmt.Fprintf(os.Stderr, "dodbench: measuring %s\n", c.name)
		rec := measureKernel(c)
		seqNs[c.name] = rec.NsPerOp
		doc.Kernels = append(doc.Kernels, rec)
	}
	workers := runtime.GOMAXPROCS(0)
	for _, c := range jsonBenchCases() {
		fmt.Fprintf(os.Stderr, "dodbench: measuring %s (parallel, %d workers)\n", c.name, workers)
		doc.Parallel = append(doc.Parallel, measureKernelParallel(c, workers, seqNs[c.name]))
	}
	fmt.Fprintf(os.Stderr, "dodbench: measuring pipeline (%d points, %d reducers)\n", cfg.points, cfg.reducers)
	pipe, err := measurePipeline(cfg)
	if err != nil {
		return err
	}
	doc.Pipeline = pipe
	fmt.Fprintf(os.Stderr, "dodbench: measuring loopback cluster (%d points)\n", cfg.points)
	distRec, err := measureDist(cfg)
	if err != nil {
		return err
	}
	doc.Dist = distRec
	fmt.Fprintf(os.Stderr, "dodbench: measuring high-dimensional tactics\n")
	hd, err := measureHighDim(cfg)
	if err != nil {
		return err
	}
	doc.HighDim = hd

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

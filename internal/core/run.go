package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dod/internal/cluster"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/obs"
	"dod/internal/plan"
	"dod/internal/sample"
)

// Simulated-cluster calibration constants. Absolute values are arbitrary
// (the experiments compare ratios); what matters is that task durations are
// proportional to deterministic work counters, not to the local machine's
// scheduling noise.
const (
	// WorkRate is simulated work units (distance computations, indexed
	// points, records) per second per task slot.
	WorkRate = 25e6
	// ShuffleRate is simulated aggregate shuffle bandwidth in bytes/sec.
	ShuffleRate = 500e6
	// IORate is simulated per-slot input read bandwidth in bytes/sec. Every
	// job charges each task for (re)reading its input, so multi-job plans
	// (the Domain baseline) pay the "prohibitive costs involved in reading,
	// writing, and re-distribution of the data over a series of separate
	// jobs" that Sec. I attributes to them.
	IORate = 100e6
)

// Config controls one end-to-end DOD run.
type Config struct {
	Params  detect.Params
	Planner plan.Planner
	// PlanOpts carries reducer/partition counts and DMT settings. Its
	// Params field is overwritten with Config.Params.
	PlanOpts plan.Options

	SampleRate    float64 // preprocessing sampling rate Υ; default 0.005
	BucketsPerDim int     // mini buckets per dimension; default 32
	Seed          int64

	Parallelism int // local goroutines for the in-process engine

	// ExecutorFor, when set, supplies the task executor for the detection
	// job once the plan is known — the hook the cluster engine uses to
	// ship map and reduce tasks to remote workers. The preprocessing job
	// (tiny: it reads the Υ-sample) always runs in-process on the
	// coordinator. Nil runs everything in-process. Only single-pass
	// strategies (SupportR > 0) are supported remotely: the Domain
	// baseline's second job has its own mapper/reducer pair that workers
	// do not know how to build.
	ExecutorFor func(pl *plan.Plan, params detect.Params, seed int64) (mapreduce.Executor, error)

	Cluster cluster.Config // simulated cluster; default the paper's 40×8
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 {
		c.SampleRate = sample.DefaultRate
	}
	if c.BucketsPerDim < 1 {
		c.BucketsPerDim = 32
	}
	if c.Cluster.Slots() <= 1 && c.Cluster.Nodes == 0 {
		c.Cluster = cluster.PaperCluster
	}
	return c
}

// Report is the outcome of a DOD run: the verdicts plus the execution
// profile the experiments plot.
type Report struct {
	Plan     *plan.Plan
	Outliers []uint64 // sorted IDs

	// Engine names what executed the detection tasks: "local" (in-process
	// goroutines) or "cluster" (remote workers over the network). Under
	// "cluster", the Wall breakdown below is a real distributed makespan —
	// network shipping included — while Simulated remains the paper's
	// modeled 40-node replay; comparing the two is exactly the real-vs-
	// simulated check the simulator could never provide by itself.
	Engine string

	// Trace is the structured execution record: one span per pipeline
	// stage ("preprocess", "plan", "map", "shuffle", "reduce") plus one
	// "partition.detect" span per partition annotated with the chosen
	// detector and its work counters. The Wall breakdown below is derived
	// from it.
	Trace *obs.Trace

	// Simulated is the paper-comparable stage breakdown: per-task work
	// counters replayed through the cluster simulator.
	Simulated cluster.PhaseBreakdown
	// Wall is the in-process wall-clock breakdown of the same stages,
	// derived from Trace.
	Wall cluster.PhaseBreakdown

	ShuffleBytes   int64
	ShuffleRecords int64
	CoreRecords    int64
	SupportRecords int64
	DistComps      int64
	PointsIndexed  int64

	// ReduceImbalance is max/mean simulated reduce-task load (1 = perfect).
	ReduceImbalance float64
	NumJobs         int
}

// Run executes the full DOD workflow of Fig. 6 on the input: the
// preprocessing job (when the planner needs statistics), the single-pass
// detection job, and — for the Domain baseline — the second verification
// job.
//
// Cancellation is cooperative: between pipeline stages and between reduce
// key groups, ctx is polled and the run aborts with ctx's error. Every run
// records a structured trace (Report.Trace) from which the Wall breakdown
// is derived.
func Run(ctx context.Context, input *Input, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Planner == nil {
		cfg.Planner = plan.DMT
	}

	tr := obs.NewTrace("dod.run")
	rep := &Report{Trace: tr, Engine: "local"}
	if cfg.ExecutorFor != nil {
		rep.Engine = "cluster"
	}

	// ---- Preprocessing: sampling + plan generation ----
	var hist *sample.Histogram
	if cfg.Planner.NeedsStats() {
		sCfg := sample.Config{
			Domain:        input.Domain,
			BucketsPerDim: cfg.BucketsPerDim,
			Rate:          cfg.SampleRate,
			Seed:          cfg.Seed,
		}
		sp := tr.Start("preprocess").SetAttr(
			obs.Int("splits", int64(len(input.Splits))),
			obs.Int("buckets_per_dim", int64(cfg.BucketsPerDim)))
		var res *mapreduce.Result
		var err error
		hist, res, err = sample.RunJobContext(ctx, sCfg, mapreduce.Config{Parallelism: cfg.Parallelism}, input.Splits)
		if err != nil {
			return nil, fmt.Errorf("core: preprocessing: %w", err)
		}
		sp.SetAttr(obs.Int("sampled", res.Metrics.Counter("sample.sampled"))).End()
		pre := simulateJob(cfg.Cluster, res)
		rep.Simulated.Preprocess = pre.Map + pre.Shuffle + pre.Reduce
		rep.NumJobs++
	} else {
		// Domain/uniSpace only need the domain rectangle.
		hist = domainHistogram(input.Domain, cfg.BucketsPerDim)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	opts := cfg.PlanOpts
	opts.Params = cfg.Params
	psp := tr.Start("plan").SetAttr(obs.Str("planner", cfg.Planner.Name()))
	pl, err := cfg.Planner.Build(hist, opts)
	if err != nil {
		return nil, fmt.Errorf("core: planning: %w", err)
	}
	psp.SetAttr(
		obs.Int("partitions", int64(len(pl.Partitions))),
		obs.Int("reducers", int64(pl.NumReducers))).End()
	rep.Plan = pl
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// ---- Detection job (single pass, Fig. 2/3) ----
	mrCfg := mapreduce.Config{
		NumReducers: pl.NumReducers,
		Parallelism: cfg.Parallelism,
		Partitioner: func(key uint64, n int) int { return pl.ReducerFor(key) },
		Trace:       tr,
	}
	if cfg.ExecutorFor != nil {
		if pl.SupportR <= 0 {
			return nil, fmt.Errorf("core: the cluster engine requires a single-pass strategy (supporting areas); the Domain baseline is local-only")
		}
		exec, err := cfg.ExecutorFor(pl, cfg.Params, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: cluster executor: %w", err)
		}
		mrCfg.Executor = exec
	}

	if pl.SupportR > 0 {
		res, err := mapreduce.RunContext(ctx, mrCfg, input.Splits, detectionMapper(pl), detectionReducer(pl, cfg.Params, cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("core: detection: %w", err)
		}
		rep.Outliers, err = decodeOutlierIDs(res.Output)
		if err != nil {
			return nil, err
		}
		rep.NumJobs++
		accumulateJob(rep, cfg.Cluster, res, tr)
	} else {
		// ---- Domain baseline: two jobs ----
		res1, err := mapreduce.RunContext(ctx, mrCfg, input.Splits, detectionMapper(pl), domainJob1Reducer(pl, cfg.Params, cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("core: domain job 1: %w", err)
		}
		finals, cands, err := splitDomainJob1Output(res1.Output)
		if err != nil {
			return nil, err
		}
		rep.NumJobs++
		accumulateJob(rep, cfg.Cluster, res1, tr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		splits2 := append(append([]mapreduce.Split(nil), input.Splits...), mapreduce.Split{
			Name: candidatesSplitName,
			Data: encodeCandidates(cands),
		})
		res2, err := mapreduce.RunContext(ctx, mrCfg, splits2, domainJob2Mapper(pl, cfg.Params), domainJob2Reducer(cfg.Params))
		if err != nil {
			return nil, fmt.Errorf("core: domain job 2: %w", err)
		}
		confirmed, err := reconcileDomain(cands, res2.Output, cfg.Params.K)
		if err != nil {
			return nil, err
		}
		rep.Outliers = append(finals, confirmed...)
		rep.NumJobs++
		accumulateJob(rep, cfg.Cluster, res2, tr)
	}

	// The Wall breakdown is a view over the trace: stage spans are
	// summed across jobs, making the Report derivable from the trace
	// rather than a parallel bookkeeping structure.
	rep.Wall = cluster.PhaseBreakdown{
		Preprocess: tr.Total("preprocess"),
		Map:        tr.Total("map"),
		Shuffle:    tr.Total("shuffle"),
		Reduce:     tr.Total("reduce"),
	}

	sort.Slice(rep.Outliers, func(i, j int) bool { return rep.Outliers[i] < rep.Outliers[j] })
	return rep, nil
}

// jobBreakdown is the simulated stage cost of one MapReduce job.
type jobBreakdown struct {
	Map, Shuffle, Reduce  time.Duration
	reduceImbalance       float64
	mapWall, reduceWall   time.Duration
	shuffleWall           time.Duration
	shuffleBytes, records int64
}

// simulateJob replays a job's per-task work counters through the cluster
// simulator: one makespan for the map tasks, one for the reduce tasks.
func simulateJob(cfg cluster.Config, res *mapreduce.Result) jobBreakdown {
	taskFor := func(m mapreduce.TaskMetric, phase, counter string) cluster.Task {
		units := m.Counters[counter]
		if units < m.RecordsIn {
			units = m.RecordsIn // floor: every record is at least touched
		}
		cpu := float64(units) / WorkRate
		io := float64(m.BytesIn) / IORate
		return cluster.Task{
			Name:     fmt.Sprintf("%s-%04d", phase, m.TaskID),
			Duration: time.Duration((cpu + io) * float64(time.Second)),
		}
	}
	var mapTasks, reduceTasks []cluster.Task
	for _, m := range res.Metrics.MapTasks {
		mapTasks = append(mapTasks, taskFor(m, "map", counterMapWork))
	}
	for _, m := range res.Metrics.ReduceTasks {
		reduceTasks = append(reduceTasks, taskFor(m, "reduce", counterReduceWork))
	}
	reduceSched := cluster.RunPhase(cfg, reduceTasks)
	return jobBreakdown{
		Map:             cluster.RunPhase(cfg, mapTasks).Makespan,
		Shuffle:         time.Duration(float64(res.Metrics.ShuffleBytes) / ShuffleRate * float64(time.Second)),
		Reduce:          reduceSched.Makespan,
		reduceImbalance: reduceSched.Imbalance(),
		mapWall:         res.Metrics.MapWall,
		reduceWall:      res.Metrics.ReduceWall,
		shuffleWall:     res.Metrics.ShuffleWall,
		shuffleBytes:    res.Metrics.ShuffleBytes,
	}
}

// accumulateJob folds one detection-stage job into the report and records
// the job's map/shuffle/reduce stages as trace spans (start times are
// reconstructed backwards from the job's completion instant, so spans
// order correctly in the trace).
func accumulateJob(rep *Report, cfg cluster.Config, res *mapreduce.Result, tr *obs.Trace) {
	jb := simulateJob(cfg, res)
	job := int64(rep.NumJobs - 1)
	reduceStart := time.Now().Add(-jb.reduceWall)
	shuffleStart := reduceStart.Add(-jb.shuffleWall)
	mapStart := shuffleStart.Add(-jb.mapWall)
	tr.Add("map", mapStart, jb.mapWall,
		obs.Int("job", job), obs.Int("tasks", int64(len(res.Metrics.MapTasks))))
	tr.Add("shuffle", shuffleStart, jb.shuffleWall,
		obs.Int("job", job),
		obs.Int("bytes", res.Metrics.ShuffleBytes),
		obs.Int("records", res.Metrics.ShuffleRecords))
	tr.Add("reduce", reduceStart, jb.reduceWall,
		obs.Int("job", job), obs.Int("tasks", int64(len(res.Metrics.ReduceTasks))))
	rep.Simulated.Map += jb.Map
	rep.Simulated.Shuffle += jb.Shuffle
	rep.Simulated.Reduce += jb.Reduce
	rep.ShuffleBytes += res.Metrics.ShuffleBytes
	rep.ShuffleRecords += res.Metrics.ShuffleRecords
	rep.CoreRecords += res.Metrics.Counter(counterCoreRecords)
	rep.SupportRecords += res.Metrics.Counter(counterSupportRecords)
	rep.DistComps += res.Metrics.Counter(counterDistComps)
	rep.PointsIndexed += res.Metrics.Counter(counterPointsIndexed)
	if jb.reduceImbalance > rep.ReduceImbalance {
		rep.ReduceImbalance = jb.reduceImbalance
	}
}

// DetectCentralized runs a single centralized detector over the whole
// dataset — the non-distributed reference the experiments of Sec. IV use.
func DetectCentralized(points []geom.Point, kind detect.Kind, params detect.Params, seed int64) detect.Result {
	return detect.New(kind, seed).Detect(points, nil, params)
}

package core

import (
	"fmt"

	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/plan"
	"dod/internal/sample"
)

// domainHistogram is the statistics-free histogram the Domain and uniSpace
// planners read: the domain as one empty bucket. They take the domain from
// it, and its counts, zero at any resolution, price nothing.
func domainHistogram(domain geom.Rect) *sample.Histogram {
	ones := make([]int, domain.Dim())
	for i := range ones {
		ones[i] = 1
	}
	return &sample.Histogram{Grid: geom.NewGrid(domain, ones), Counts: make([]float64, 1), Rate: 1}
}

// AreaOptions configure a supporting-area job.
type AreaOptions struct {
	NumPartitions int // uniSpace grid cells; default 16
	NumReducers   int // reduce tasks; default 4
	Parallelism   int
	Seed          int64
}

// AreaJob is the single-pass supporting-area job that Sec. III-B adapts to
// other mining tasks: a uniSpace plan whose supporting areas span a radius,
// the points' splits, and the engine configuration routing each partition
// to its reducer. The map function and the shuffle are the detection job's;
// only the per-partition computation, an AreaReducer, changes.
type AreaJob struct {
	Plan   *plan.Plan
	Splits []mapreduce.Split
	Config mapreduce.Config
}

// AreaReducer computes one partition's output from its core points and its
// support points (every point outside the partition within the radius).
type AreaReducer func(key uint64, core, support []geom.Point, emit mapreduce.Emit) error

// NewAreaJob plans points for supporting areas of radius r.
func NewAreaJob(points []geom.Point, r float64, opts AreaOptions) (*AreaJob, error) {
	if opts.NumPartitions < 1 {
		opts.NumPartitions = 16
	}
	if opts.NumReducers < 1 {
		opts.NumReducers = 4
	}
	in, err := InputFromPoints(points, 8192)
	if err != nil {
		return nil, err
	}
	// uniSpace reads only the histogram's domain.
	pl, err := plan.UniSpace.Build(domainHistogram(in.Domain), plan.Options{
		NumReducers:   opts.NumReducers,
		NumPartitions: opts.NumPartitions,
		Params:        detect.Params{R: r, K: 1},
		Detector:      detect.CellBased,
	})
	if err != nil {
		return nil, err
	}
	return &AreaJob{
		Plan:   pl,
		Splits: in.Splits,
		Config: mapreduce.Config{
			NumReducers: pl.NumReducers,
			Parallelism: opts.Parallelism,
			Partitioner: func(key uint64, n int) int { return pl.ReducerFor(key) },
			Seed:        opts.Seed,
		},
	}, nil
}

// Run maps the splits with the detection job's map function and hands each
// partition's core and support points to reduce.
func (j *AreaJob) Run(reduce AreaReducer) ([]mapreduce.Pair, error) {
	reducer := func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		sc := scratchPool.Get().(*taskScratch)
		defer scratchPool.Put(sc)
		if _, err := decodeTaggedGroupSet(values, sc); err != nil {
			return fmt.Errorf("core: partition %d: %w", key, err)
		}
		return reduce(key, sc.core.Points(), sc.supp.Points(), emit)
	}
	res, err := mapreduce.Run(j.Config, j.Splits, detectionMapper(j.Plan), mapreduce.ReducerFunc(reducer))
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

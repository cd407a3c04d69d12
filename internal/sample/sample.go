// Package sample implements the distribution-estimation stage of DMT's
// preprocessing job (Sec. V-A, stage one): each map task draws a Bernoulli
// random sample from its input split ("random sampling preserves the
// distribution of the underlying dataset"), aggregates the sample at the
// granularity of mini buckets — the units of the DSHC clustering — and a
// single reducer assembles the global mini-bucket histogram used for plan
// generation.
package sample

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/mapreduce"
)

// DefaultRate is the paper's default sampling rate Υ of 0.5%.
const DefaultRate = 0.005

// Retention caps for the raw sample points carried alongside the bucket
// counts (see Histogram.Sampled): per map task, and after the reducer
// merge. Small enough that the pair scan in AvgNeighbors stays ~1M
// distance computations worst case.
const (
	MaxRetainedPerTask = 512
	MaxRetained        = 1024
)

// sampledKey is the reserved reducer key carrying retained sample points.
// Bucket ordinals are bounded by the grid cell cap, so it can never
// collide with one.
const sampledKey = ^uint64(0)

// Config controls histogram construction.
type Config struct {
	Domain        geom.Rect // full domain space of the dataset
	BucketsPerDim int       // mini buckets along each dimension
	Rate          float64   // Bernoulli sampling rate Υ in (0, 1]
	Seed          int64
}

func (c Config) validate() error {
	if c.BucketsPerDim < 1 {
		return fmt.Errorf("sample: BucketsPerDim %d < 1", c.BucketsPerDim)
	}
	if c.Rate <= 0 || c.Rate > 1 {
		return fmt.Errorf("sample: rate %g outside (0, 1]", c.Rate)
	}
	return nil
}

// Histogram is the estimated distribution of a dataset over mini buckets.
// Counts are scaled by 1/Rate, so they estimate true per-bucket
// cardinalities.
//
// Sampled holds a capped subset of the raw sample points (at most
// MaxRetained, sorted by ID). Bucket counts capture where mass sits but —
// especially in high dimension, where one bucket can cover the whole
// domain — say nothing about how *clumped* it is at the scale of the query
// radius; the retained points do, via AvgNeighbors. Sampled may be nil
// (legacy histograms, tests); consumers must treat the statistic as
// optional.
type Histogram struct {
	Grid    *geom.Grid
	Counts  []float64
	Rate    float64
	Sampled []geom.Point

	nbCacheR   float64
	nbCacheVal float64
	nbCacheOK  bool
}

// AvgNeighbors estimates the mean number of dataset points within
// distance r of a random data point, from pair counts over the retained
// sample scaled up by EstimatedTotal/len(Sampled). It is the
// dimension-free density statistic the proximity-graph cost model keys
// on: volume-based densities underflow to zero in high dimension, while
// this measures clumping at radius r directly. Returns ok=false when too
// few points were retained to say anything. The result for one r is
// cached; the planner queries a single radius throughout a run. Not safe
// for concurrent use (plan generation is sequential).
func (h *Histogram) AvgNeighbors(r float64) (lambda float64, ok bool) {
	if h.nbCacheOK && h.nbCacheR == r {
		return h.nbCacheVal, true
	}
	s := h.Sampled
	if len(s) < 16 {
		return 0, false
	}
	r2 := r * r
	var pairs int64
	for i := range s {
		ci := s[i].Coords
		for j := i + 1; j < len(s); j++ {
			var d2 float64
			for t, v := range ci {
				d := v - s[j].Coords[t]
				d2 += d * d
			}
			if d2 <= r2 {
				pairs++
			}
		}
	}
	// Each within-r pair gives both endpoints one sample neighbor; a
	// uniform sample of size s from N points sees ~s/N of each point's
	// true neighbors.
	avgInSample := 2 * float64(pairs) / float64(len(s))
	lambda = avgInSample * h.EstimatedTotal() / float64(len(s))
	h.nbCacheR, h.nbCacheVal, h.nbCacheOK = r, lambda, true
	return lambda, true
}

// EstimatedTotal returns the estimated dataset cardinality.
func (h *Histogram) EstimatedTotal() float64 {
	var t float64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BucketCount returns the estimated cardinality of one mini bucket.
func (h *Histogram) BucketCount(ord int) float64 { return h.Counts[ord] }

// BucketDensity returns estimated points per unit volume in one bucket.
func (h *Histogram) BucketDensity(ord int) float64 {
	vol := h.Grid.CellRect(h.Grid.Unflatten(ord)).AreaEps(1e-12)
	return h.Counts[ord] / vol
}

// FromPoints builds a histogram directly from in-memory points. It is the
// centralized equivalent of RunJobContext, used by tests and by callers
// that already hold the data locally.
func FromPoints(cfg Config, points []geom.Point) (*Histogram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid := geom.NewGrid(cfg.Domain, dims(cfg))
	h := &Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: cfg.Rate}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, p := range points {
		if rng.Float64() >= cfg.Rate {
			continue
		}
		h.Counts[grid.CellOrdinal(cfg.Domain.Clamp(p))] += 1 / cfg.Rate
		if len(h.Sampled) < MaxRetained {
			h.Sampled = append(h.Sampled, p.Clone())
		}
	}
	return h, nil
}

// MaxCells bounds a histogram grid's cell count: perDim^dim overflows int
// (and any allocation budget) long before the d≥32 workloads this repo
// targets, while a coarser grid still orders plan generation.
const MaxCells = 1 << 20

// DimsFor returns perDim buckets along each of dim axes, lowered so the
// total cell count stays within maxCells.
func DimsFor(dim, perDim, maxCells int) []int {
	for {
		total := 1
		fits := true
		for i := 0; i < dim; i++ {
			if total > maxCells/perDim {
				fits = false
				break
			}
			total *= perDim
		}
		if fits || perDim == 1 {
			break
		}
		perDim--
	}
	d := make([]int, dim)
	for i := range d {
		d[i] = perDim
	}
	return d
}

func dims(cfg Config) []int {
	return DimsFor(cfg.Domain.Dim(), cfg.BucketsPerDim, MaxCells)
}

// RunJobContext executes the distributed sampling job over the given input
// splits (each split's Data is a codec.EncodePoints block). It mirrors the
// paper's stage-one MapReduce: mappers sample and pre-aggregate per mini
// bucket; a single reducer merges the bucket statistics. Cancellation is
// cooperative: once jobCtx is done the underlying MapReduce job stops
// dispatching tasks and returns jobCtx's error.
func RunJobContext(jobCtx context.Context, cfg Config, mrCfg mapreduce.Config, splits []mapreduce.Split) (*Histogram, *mapreduce.Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	grid := geom.NewGrid(cfg.Domain, dims(cfg))

	mapper := mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
		var set geom.PointSet
		if err := codec.DecodePointsInto(split.Data, &set); err != nil {
			return fmt.Errorf("sample: split %s: %w", split.Name, err)
		}
		// Per-task seed: deterministic regardless of scheduling.
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(ctx.TaskID)))
		local := make(map[int]uint64)
		// retained aliases set, which outlives its encode below. Counters
		// are tallied here and posted once per split; a counter with
		// nothing to count stays absent from the task's metric.
		var retained []geom.Point
		var sampled int64
		n := set.Len()
		for i := 0; i < n; i++ {
			if rng.Float64() >= cfg.Rate {
				continue
			}
			sampled++
			p := set.At(i)
			local[grid.CellOrdinal(cfg.Domain.Clamp(p))]++
			if len(retained) < MaxRetainedPerTask {
				retained = append(retained, p)
			}
		}
		if n > 0 {
			ctx.Inc("sample.scanned", int64(n))
		}
		if sampled > 0 {
			ctx.Inc("sample.sampled", sampled)
		}
		for ord, count := range local {
			emit(uint64(ord), binary.AppendUvarint(nil, count))
		}
		if len(retained) > 0 {
			emit(sampledKey, codec.EncodePoints(retained))
		}
		return nil
	})

	reducer := mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		if key == sampledKey {
			// Merge per-task retained points; sorting by ID before the cap
			// makes the merge independent of map-task completion order.
			var merged []geom.Point
			for _, v := range values {
				pts, err := codec.DecodePoints(v)
				if err != nil {
					return fmt.Errorf("sample: malformed retained points: %w", err)
				}
				merged = append(merged, pts...)
			}
			sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
			if len(merged) > MaxRetained {
				merged = merged[:MaxRetained]
			}
			emit(key, codec.EncodePoints(merged))
			return nil
		}
		var total uint64
		for _, v := range values {
			n, read := binary.Uvarint(v)
			if read <= 0 {
				return fmt.Errorf("sample: malformed count for bucket %d", key)
			}
			total += n
		}
		emit(key, binary.AppendUvarint(nil, total))
		return nil
	})

	// Plan generation is centralized (Sec. V-A): one reducer.
	mrCfg.NumReducers = 1
	res, err := mapreduce.RunContext(jobCtx, mrCfg, splits, mapper, reducer)
	if err != nil {
		return nil, nil, err
	}

	h := &Histogram{Grid: grid, Counts: make([]float64, grid.NumCells()), Rate: cfg.Rate}
	for _, pair := range res.Output {
		if pair.Key == sampledKey {
			pts, err := codec.DecodePoints(pair.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("sample: malformed retained points: %w", err)
			}
			h.Sampled = pts
			continue
		}
		n, read := binary.Uvarint(pair.Value)
		if read <= 0 {
			return nil, nil, fmt.Errorf("sample: malformed reducer output for bucket %d", pair.Key)
		}
		h.Counts[pair.Key] = float64(n) / cfg.Rate
	}
	return h, res, nil
}

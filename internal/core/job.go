package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"dod/internal/codec"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/obs"
	"dod/internal/plan"
)

// Counter names used by the DOD jobs. "work" counters feed the cluster
// simulator; the others are reported for analysis.
const (
	counterMapWork        = "work.map"
	counterReduceWork     = "work.reduce"
	counterCoreRecords    = "records.core"
	counterSupportRecords = "records.support"
	counterDistComps      = "detect.distcomps"
	counterPointsIndexed  = "detect.indexed"
	counterOutliers       = "detect.outliers"
)

// taskScratch is the per-task columnar decode buffer. One pooled pair of
// point sets serves both sides of a job: mappers decode their whole split
// into core (reusing its arrays split after split), reducers decode a value
// group into core/supp and then run the detector straight off the columnar
// layout. Pooling keeps the steady-state reduce path free of per-group
// slice churn — tasks borrow grown-once arrays instead of reallocating one
// []geom.Point plus one Coords slice per record.
type taskScratch struct {
	core, supp geom.PointSet
}

var scratchPool = sync.Pool{New: func() any { return new(taskScratch) }}

// detectionMapper implements the map function of Fig. 3: one core record
// per point, one support record per supporting partition.
func detectionMapper(pl *plan.Plan) mapreduce.MapperFunc {
	return func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
		sc := scratchPool.Get().(*taskScratch)
		defer scratchPool.Put(sc)
		sc.core.Clear()
		if err := codec.DecodePointsInto(split.Data, &sc.core); err != nil {
			return fmt.Errorf("core: split %s: %w", split.Name, err)
		}
		// rec is the one encode buffer and supports the one routing
		// scratch: Emit copies each record, and LocateInto writes over
		// supports. Counters are tallied here and posted once per split
		// (Inc takes the task's mutex and hashes the counter name); a
		// counter with nothing to count stays absent from the task's
		// metric.
		n := sc.core.Len()
		var rec []byte
		var supports []int
		var supportRecords int64
		for i := 0; i < n; i++ {
			p := sc.core.At(i) // aliased view; Locate and the codec copy, never retain
			var core int
			core, supports = pl.LocateInto(p, supports)
			rec = codec.AppendTaggedPoint(rec[:0], codec.TagCore, p)
			emit(uint64(core), rec)
			if len(supports) > 0 {
				rec = codec.AppendTaggedPoint(rec[:0], codec.TagSupport, p)
				for _, s := range supports {
					emit(uint64(s), rec)
				}
				supportRecords += int64(len(supports))
			}
		}
		if n > 0 {
			ctx.Inc(counterCoreRecords, int64(n))
		}
		if supportRecords > 0 {
			ctx.Inc(counterSupportRecords, supportRecords)
		}
		ctx.Inc(counterMapWork, int64(n)+supportRecords)
		return nil
	}
}

// detectionReducer implements the reduce function of Fig. 3: split the
// group into core and support lists, run the partition's assigned detector,
// and report outliers among the core points. The detector runs on the
// task's cores (TaskContext.Cores); its Result does not depend on how
// many. Each partition's detector choice, cores and runtime is recorded
// as a "partition.detect" span on the task's trace — the job trace
// in-process, a shipped-back per-task trace on a remote worker.
func detectionReducer(pl *plan.Plan, params detect.Params, seed int64) mapreduce.ReducerFunc {
	return func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		if key >= uint64(len(pl.Partitions)) {
			return fmt.Errorf("core: reduce key %d out of range (%d partitions)", key, len(pl.Partitions))
		}
		sc := scratchPool.Get().(*taskScratch)
		defer scratchPool.Put(sc)
		nCore, err := decodeTaggedGroupSet(values, sc)
		if err != nil {
			return fmt.Errorf("core: partition %d: %w", key, err)
		}
		nSupport := sc.supp.Len()
		if nCore > 0 {
			// Neighbor pool = core ∪ support, core first, so point i < nCore
			// is a core point — the layout detect.DetectSet expects.
			sc.core.AppendSet(&sc.supp)
		}
		part := pl.Partitions[key]
		detector := detect.New(part.Algo, seed+int64(key))
		start := time.Now()
		cores := ctx.Cores()
		res := detect.DetectSetParallel(detector, &sc.core, nCore, params, cores)
		ctx.Trace.Add("partition.detect", start, time.Since(start),
			obs.Int("partition", int64(key)),
			obs.Str("algo", part.Algo.String()),
			obs.Int("cores", int64(cores)),
			obs.Int("core", int64(nCore)),
			obs.Int("support", int64(nSupport)),
			obs.Int("distcomps", res.Stats.DistComps),
			obs.Int("outliers", int64(len(res.OutlierIDs))))
		var rec [binary.MaxVarintLen64]byte
		for _, id := range res.OutlierIDs {
			emit(key, binary.AppendUvarint(rec[:0], id))
		}
		ctx.Inc(counterReduceWork, res.Stats.Cost()+int64(len(values)))
		ctx.Inc(counterDistComps, res.Stats.DistComps)
		ctx.Inc(counterPointsIndexed, res.Stats.PointsIndexed)
		ctx.Inc(counterOutliers, int64(len(res.OutlierIDs)))
		return nil
	}
}

// decodeTaggedGroupSet splits a reducer value group into the scratch's core
// and supp sets by record tag, decoding every point straight into the
// columnar arrays (no intermediate []geom.Point). It returns the core count;
// the caller decides whether to merge supp into core (the detection job's
// neighbor pool) or ignore it (the Domain baseline detects on core alone).
// Both sets are sized before the first decode, core for the whole group so
// the merge grows nothing: a scratch the pool lost to a GC then costs its
// arrays once, not one growth per doubling.
func decodeTaggedGroupSet(values [][]byte, sc *taskScratch) (nCore int, err error) {
	sc.core.Clear()
	sc.supp.Clear()
	if len(values) > 0 {
		n, dim := len(values), codec.TaggedPointDim(values[0])
		for _, v := range values {
			if len(v) > 0 && v[0] == codec.TagCore {
				nCore++
			}
		}
		sc.core.IDs = slices.Grow(sc.core.IDs, n)
		sc.core.Coords = slices.Grow(sc.core.Coords, n*dim)
		sc.supp.IDs = slices.Grow(sc.supp.IDs, n-nCore)
		sc.supp.Coords = slices.Grow(sc.supp.Coords, (n-nCore)*dim)
	}
	for _, v := range values {
		if len(v) == 0 {
			return 0, codec.ErrTruncated
		}
		var target *geom.PointSet
		switch v[0] {
		case codec.TagCore:
			target = &sc.core
		case codec.TagSupport:
			target = &sc.supp
		default:
			return 0, fmt.Errorf("unknown record tag %d", v[0])
		}
		if _, _, err := codec.DecodeTaggedPointInto(v, target); err != nil {
			return 0, err
		}
	}
	return sc.core.Len(), nil
}

// decodeOutlierIDs extracts the outlier IDs from a detection job's output.
func decodeOutlierIDs(pairs []mapreduce.Pair) ([]uint64, error) {
	ids := make([]uint64, 0, len(pairs))
	for _, p := range pairs {
		id, n := binary.Uvarint(p.Value)
		if n <= 0 {
			return nil, fmt.Errorf("core: malformed outlier record for key %d", p.Key)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"dod/internal/codec"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/obs"
	"dod/internal/plan"
)

// The Domain baseline has no supporting areas, so a point's local verdict
// can be wrong near partition boundaries. It therefore runs two jobs
// (Sec. VI-A):
//
//	job 1: per-partition detection; interior outliers are final, border
//	       outliers become *candidates* carrying their local neighbor count;
//	job 2: candidates are routed to every neighboring partition, which
//	       counts additional neighbors among its border points; the driver
//	       sums the counts to settle each candidate.

// Kinds of job-1 output records.
const (
	domainFinalOutlier byte = 0
	domainCandidate    byte = 1
)

// candidate is a border point that was a local outlier in job 1.
type candidate struct {
	origin     int // core partition
	localCount int // neighbors found within the origin partition
	point      geom.Point
}

func encodeCandidate(c candidate) []byte {
	buf := []byte{domainCandidate}
	buf = binary.AppendUvarint(buf, uint64(c.origin))
	buf = binary.AppendUvarint(buf, uint64(c.localCount))
	return codec.AppendPoint(buf, c.point)
}

func decodeCandidate(buf []byte) (candidate, error) {
	if len(buf) < 1 || buf[0] != domainCandidate {
		return candidate{}, fmt.Errorf("core: not a candidate record")
	}
	rest := buf[1:]
	origin, n := binary.Uvarint(rest)
	if n <= 0 {
		return candidate{}, codec.ErrTruncated
	}
	rest = rest[n:]
	local, n := binary.Uvarint(rest)
	if n <= 0 {
		return candidate{}, codec.ErrTruncated
	}
	rest = rest[n:]
	p, _, err := codec.DecodePoint(rest)
	if err != nil {
		return candidate{}, err
	}
	return candidate{origin: int(origin), localCount: int(local), point: p}, nil
}

// nearBoundary reports whether p lies within distance r of rect's boundary.
func nearBoundary(rect geom.Rect, p geom.Point, r float64) bool {
	for i := range rect.Min {
		if p.Coords[i]-rect.Min[i] < r || rect.Max[i]-p.Coords[i] < r {
			return true
		}
	}
	return false
}

// domainJob1Reducer runs the partition's detector on core points only, then
// classifies each local outlier as final (interior) or candidate (border).
// Candidates get an exact local neighbor count via a direct scan — an extra
// cost the baseline realistically pays for lacking supporting areas.
func domainJob1Reducer(pl *plan.Plan, params detect.Params, seed int64) mapreduce.ReducerFunc {
	return func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		sc := scratchPool.Get().(*taskScratch)
		defer scratchPool.Put(sc)
		// Support records (if any) stay in sc.supp, unmerged: the Domain
		// baseline's defining property is detecting on core points alone.
		nCore, err := decodeTaggedGroupSet(values, sc)
		if err != nil {
			return fmt.Errorf("core: partition %d: %w", key, err)
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
			obs.Int("distcomps", res.Stats.DistComps),
			obs.Int("outliers", int64(len(res.OutlierIDs))))
		work := res.Stats.Cost() + int64(len(values))

		byID := make(map[uint64]int, len(res.OutlierIDs))
		for i := 0; i < nCore; i++ {
			byID[sc.core.IDs[i]] = i
		}
		r2 := params.R * params.R
		for _, id := range res.OutlierIDs {
			pi := byID[id]
			p := sc.core.At(pi)
			if !nearBoundary(part.Rect, p, params.R) {
				// Interior: no external point can be a neighbor; final.
				emit(key, binary.AppendUvarint([]byte{domainFinalOutlier}, id))
				continue
			}
			// Border outlier: exact local count for job-2 reconciliation.
			localCount := 0
			for j := 0; j < nCore; j++ {
				if sc.core.IDs[j] == id {
					continue
				}
				work++
				if sc.core.Within2(pi, j, r2) {
					localCount++
				}
			}
			emit(key, encodeCandidate(candidate{origin: int(key), localCount: localCount, point: p}))
		}
		ctx.Inc(counterReduceWork, work)
		ctx.Inc(counterDistComps, res.Stats.DistComps)
		return nil
	}
}

// splitDomainJob1Output separates the first job's output into final outlier
// IDs and border candidates.
func splitDomainJob1Output(pairs []mapreduce.Pair) (finals []uint64, cands []candidate, err error) {
	for _, pair := range pairs {
		if len(pair.Value) == 0 {
			return nil, nil, fmt.Errorf("core: empty job-1 record")
		}
		switch pair.Value[0] {
		case domainFinalOutlier:
			id, n := binary.Uvarint(pair.Value[1:])
			if n <= 0 {
				return nil, nil, codec.ErrTruncated
			}
			finals = append(finals, id)
		case domainCandidate:
			c, err := decodeCandidate(pair.Value)
			if err != nil {
				return nil, nil, err
			}
			cands = append(cands, c)
		default:
			return nil, nil, fmt.Errorf("core: unknown job-1 record kind %d", pair.Value[0])
		}
	}
	return finals, cands, nil
}

// candidatesSplitName marks the synthetic split carrying job-1 candidates
// into job 2.
const candidatesSplitName = "domain-candidates"

func encodeCandidates(cands []candidate) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(cands)))
	for _, c := range cands {
		cBuf := encodeCandidate(c)
		buf = binary.AppendUvarint(buf, uint64(len(cBuf)))
		buf = append(buf, cBuf...)
	}
	return buf
}

func decodeCandidates(buf []byte) ([]candidate, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, codec.ErrTruncated
	}
	buf = buf[n:]
	out := make([]candidate, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf[n:])) < size {
			return nil, codec.ErrTruncated
		}
		c, err := decodeCandidate(buf[n : n+int(size)])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		buf = buf[n+int(size):]
	}
	return out, nil
}

// job2BorderPoint tags a partition's own border core point in job 2; a
// candidate routed from another partition keeps its domainCandidate tag.
const job2BorderPoint byte = 10

// domainJob2Mapper routes (a) each partition's border core points to their
// own partition and (b) each candidate to every neighboring partition whose
// r-expansion contains it.
func domainJob2Mapper(pl *plan.Plan, params detect.Params) mapreduce.MapperFunc {
	return func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
		if split.Name == candidatesSplitName {
			cands, err := decodeCandidates(split.Data)
			if err != nil {
				return fmt.Errorf("core: candidates split: %w", err)
			}
			var work int64
			for _, c := range cands {
				for _, part := range pl.Partitions {
					work++
					if part.ID == c.origin {
						continue
					}
					if part.Rect.Expand(params.R).Contains(c.point) {
						emit(uint64(part.ID), encodeCandidate(c))
					}
				}
			}
			ctx.Inc(counterMapWork, work)
			return nil
		}
		sc := scratchPool.Get().(*taskScratch)
		defer scratchPool.Put(sc)
		sc.core.Clear()
		if err := codec.DecodePointsInto(split.Data, &sc.core); err != nil {
			return fmt.Errorf("core: split %s: %w", split.Name, err)
		}
		var work int64
		var rec []byte
		var supports []int // LocateInto's scratch
		for i, n := 0, sc.core.Len(); i < n; i++ {
			work++
			p := sc.core.At(i)
			var core int
			core, supports = pl.LocateInto(p, supports)
			if nearBoundary(pl.Partitions[core].Rect, p, params.R) {
				rec = codec.AppendTaggedPoint(rec[:0], job2BorderPoint, p)
				emit(uint64(core), rec)
			}
		}
		ctx.Inc(counterMapWork, work)
		return nil
	}
}

// domainJob2Reducer counts, for each candidate routed to this partition,
// its neighbors among the partition's border points, emitting
// (candidateID, count). Counting stops at k: once any partition certifies k
// neighbors the candidate is an inlier regardless of the rest.
func domainJob2Reducer(params detect.Params) mapreduce.ReducerFunc {
	return func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
		sc := scratchPool.Get().(*taskScratch)
		defer scratchPool.Put(sc)
		border := &sc.core
		border.Clear()
		var cands []candidate
		for _, v := range values {
			if len(v) == 0 {
				return fmt.Errorf("core: empty job-2 record")
			}
			switch v[0] {
			case job2BorderPoint:
				if _, _, err := codec.DecodeTaggedPointInto(v, border); err != nil {
					return err
				}
			case domainCandidate:
				c, err := decodeCandidate(v)
				if err != nil {
					return err
				}
				cands = append(cands, c)
			default:
				return fmt.Errorf("core: unknown job-2 record tag %d", v[0])
			}
		}
		var work int64 = int64(len(values))
		r2 := params.R * params.R
		for _, c := range cands {
			count := 0
			for j, nb := 0, border.Len(); j < nb; j++ {
				if count >= params.K {
					break
				}
				work++
				if border.Within2Coords(j, c.point.Coords, r2) {
					count++
				}
			}
			buf := binary.AppendUvarint(nil, c.point.ID)
			buf = binary.AppendUvarint(buf, uint64(count))
			emit(key, buf)
		}
		ctx.Inc(counterReduceWork, work)
		return nil
	}
}

// reconcileDomain sums each candidate's local and remote neighbor counts
// and settles its verdict.
func reconcileDomain(cands []candidate, job2Output []mapreduce.Pair, k int) ([]uint64, error) {
	totals := make(map[uint64]int, len(cands))
	for _, c := range cands {
		totals[c.point.ID] = c.localCount
	}
	for _, pair := range job2Output {
		id, n := binary.Uvarint(pair.Value)
		if n <= 0 {
			return nil, codec.ErrTruncated
		}
		count, m := binary.Uvarint(pair.Value[n:])
		if m <= 0 {
			return nil, codec.ErrTruncated
		}
		totals[id] += int(count)
	}
	var outliers []uint64
	for _, c := range cands {
		if totals[c.point.ID] < k {
			outliers = append(outliers, c.point.ID)
		}
	}
	return outliers, nil
}

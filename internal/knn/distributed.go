package knn

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dod/internal/codec"
	"dod/internal/core"
	"dod/internal/geom"
	"dod/internal/mapreduce"
)

// Round-1 output kinds.
const (
	recExact     byte = 0 // kNN distance resolved locally
	recCandidate byte = 1 // local value is only an upper bound
)

func encodeRound1(kind byte, p geom.Point, dist float64) []byte {
	buf := []byte{kind}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dist))
	return codec.AppendPoint(buf, p)
}

func decodeRound1(buf []byte) (kind byte, p geom.Point, dist float64, err error) {
	if len(buf) < 9 {
		return 0, geom.Point{}, 0, codec.ErrTruncated
	}
	kind = buf[0]
	dist = math.Float64frombits(binary.LittleEndian.Uint64(buf[1:9]))
	p, _, err = codec.DecodePoint(buf[9:])
	return kind, p, dist, err
}

// TopNDistributed computes the exact top-n kNN outliers with the two-round
// supporting-area algorithm described in the package comment. Round 1 is
// core's supporting-area job with supporting radius s; zero auto-tunes s
// to roughly twice the expected uniform kNN distance, which makes most
// points' round-1 values exact. Round 2 runs on the same plan, splits and
// engine configuration.
func TopNDistributed(points []geom.Point, params Params, s float64, opts core.AreaOptions) ([]Outlier, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(points) <= params.K {
		return nil, fmt.Errorf("knn: need more than k=%d points, got %d", params.K, len(points))
	}
	if s <= 0 {
		// ≈ 2× the expected kNN distance under uniformity.
		area := geom.Bounds(points).AreaEps(1e-9)
		s = 2 * math.Sqrt(float64(params.K)*area/(math.Pi*float64(len(points))))
	}
	job, err := core.NewAreaJob(points, s, opts)
	if err != nil {
		return nil, err
	}
	pl := job.Plan

	// ---- Round 1: local kNN distances over core ∪ support ----
	out1, err := job.Run(func(key uint64, home, support []geom.Point, emit mapreduce.Emit) error {
		pool := geom.PointSetOf(home, support)
		tree := geom.NewKDTree(pool)
		best := make([]float64, 0, params.K)
		for i, p := range home {
			d, ok := kthDistance(tree, pool, i, params.K, best)
			switch {
			case ok && d <= s:
				emit(key, encodeRound1(recExact, p, d))
			case ok:
				emit(key, encodeRound1(recCandidate, p, d))
			default:
				// Fewer than k pool points: unbounded candidate.
				emit(key, encodeRound1(recCandidate, p, math.Inf(1)))
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("knn: round 1: %w", err)
	}

	exact := make(map[uint64]float64, len(points))
	type cand struct {
		point geom.Point
		ub    float64
	}
	var cands []cand
	for _, pair := range out1 {
		kind, p, dist, err := decodeRound1(pair.Value)
		if err != nil {
			return nil, err
		}
		if kind == recExact {
			exact[p.ID] = dist
		} else {
			cands = append(cands, cand{point: p, ub: dist})
		}
	}

	// ---- Round 2: resolve candidates against every reachable partition ----
	if len(cands) > 0 {
		candBuf := binary.AppendUvarint(nil, uint64(len(cands)))
		for _, c := range cands {
			candBuf = binary.LittleEndian.AppendUint64(candBuf, math.Float64bits(c.ub))
			candBuf = codec.AppendPoint(candBuf, c.point)
		}
		splits2 := append(append([]mapreduce.Split(nil), job.Splits...), mapreduce.Split{
			Name: "knn-candidates",
			Data: candBuf,
		})
		mapper2 := mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
			if split.Name == "knn-candidates" {
				buf := split.Data
				count, n := binary.Uvarint(buf)
				if n <= 0 {
					return codec.ErrTruncated
				}
				buf = buf[n:]
				for i := uint64(0); i < count; i++ {
					if len(buf) < 8 {
						return codec.ErrTruncated
					}
					ub := math.Float64frombits(binary.LittleEndian.Uint64(buf))
					buf = buf[8:]
					p, m, err := codec.DecodePoint(buf)
					if err != nil {
						return err
					}
					buf = buf[m:]
					for _, part := range pl.Partitions {
						if rectDist(part.Rect, p) <= ub {
							emit(uint64(part.ID), encodeRound1(recCandidate, p, ub))
						}
					}
				}
				return nil
			}
			pts, err := codec.DecodePoints(split.Data)
			if err != nil {
				return err
			}
			var rec []byte
			var supports []int // LocateInto's scratch
			for _, p := range pts {
				var home int
				home, supports = pl.LocateInto(p, supports)
				rec = codec.AppendTaggedPoint(rec[:0], codec.TagCore, p)
				emit(uint64(home), rec)
			}
			return nil
		})
		reducer2 := mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key uint64, values [][]byte, emit mapreduce.Emit) error {
			var home []geom.Point
			var routed []geom.Point
			for _, v := range values {
				if len(v) > 0 && v[0] == recCandidate {
					_, p, _, err := decodeRound1(v)
					if err != nil {
						return err
					}
					routed = append(routed, p)
					continue
				}
				tag, p, _, err := codec.DecodeTaggedPoint(v)
				if err != nil {
					return err
				}
				if tag != codec.TagCore {
					return fmt.Errorf("knn: unexpected tag %d in round 2", tag)
				}
				home = append(home, p)
			}
			if len(home) == 0 {
				return nil // no points here, so no distances to add
			}
			tree := geom.NewKDTree(geom.PointSetOf(home))
			best := make([]float64, 0, params.K)
			for _, c := range routed {
				best = tree.Nearest(c.Coords, c.ID, params.K, best[:0])
				// Emit this partition's (up to k) smallest distances.
				buf := binary.AppendUvarint(nil, c.ID)
				buf = binary.AppendUvarint(buf, uint64(len(best)))
				for _, d2 := range best {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d2))
				}
				emit(key, buf)
			}
			return nil
		})
		res2, err := mapreduce.Run(job.Config, splits2, mapper2, reducer2)
		if err != nil {
			return nil, fmt.Errorf("knn: round 2: %w", err)
		}

		merged := make(map[uint64][]float64, len(cands))
		for _, pair := range res2.Output {
			buf := pair.Value
			id, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, codec.ErrTruncated
			}
			buf = buf[n:]
			count, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, codec.ErrTruncated
			}
			buf = buf[n:]
			for i := uint64(0); i < count; i++ {
				if len(buf) < 8 {
					return nil, codec.ErrTruncated
				}
				merged[id] = append(merged[id], math.Float64frombits(binary.LittleEndian.Uint64(buf)))
				buf = buf[8:]
			}
		}
		for _, c := range cands {
			ds := merged[c.point.ID]
			if len(ds) < params.K {
				return nil, fmt.Errorf("knn: candidate %d resolved only %d of %d neighbors", c.point.ID, len(ds), params.K)
			}
			sort.Float64s(ds)
			exact[c.point.ID] = math.Sqrt(ds[params.K-1])
		}
	}

	outliers := make([]Outlier, 0, len(exact))
	for id, d := range exact {
		outliers = append(outliers, Outlier{ID: id, Dist: d})
	}
	rank(outliers)
	if len(outliers) > params.N {
		outliers = outliers[:params.N]
	}
	return outliers, nil
}

// rectDist is the distance from p to the nearest point of rect.
func rectDist(rect geom.Rect, p geom.Point) float64 {
	var s2 float64
	for i := range rect.Min {
		v := p.Coords[i]
		switch {
		case v < rect.Min[i]:
			d := rect.Min[i] - v
			s2 += d * d
		case v > rect.Max[i]:
			d := v - rect.Max[i]
			s2 += d * d
		}
	}
	return math.Sqrt(s2)
}

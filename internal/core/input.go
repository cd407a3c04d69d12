// Package core is the DOD driver: it wires the preprocessing job (sampling
// + plan generation, Fig. 6 top) and the outlier-detection job (Fig. 2/3)
// over the MapReduce engine, implements the two-job Domain baseline the
// experiments compare against, and runs the supporting-area job (AreaJob)
// that DBSCAN, LOCI and kNN plug their reduce functions into.
package core

import (
	"fmt"
	"time"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/par"
)

// Input is a dataset ready for MapReduce consumption: record-aligned splits
// plus the domain metadata the planners need.
type Input struct {
	Splits []mapreduce.Split
	Domain geom.Rect
	Count  int
	Dim    int

	// built and buildTook are when InputFromPoints started and how long
	// it ran; Run records them as the trace's "input" span.
	built     time.Time
	buildTook time.Duration
}

// InputFromPoints packages in-memory points into splits of at most
// pointsPerSplit points each. The domain is the bounding box of the data.
// The splits are encoded in parallel: each of par.Workers(0) tiles of the
// points encodes the splits whose middle point it holds, so every split
// is encoded once, by one goroutine, into a block of its exact size.
func InputFromPoints(points []geom.Point, pointsPerSplit int) (*Input, error) {
	start := time.Now()
	if len(points) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if pointsPerSplit < 1 {
		pointsPerSplit = 64 * 1024
	}
	in := &Input{
		Domain: geom.Bounds(points),
		Count:  len(points),
		Dim:    points[0].Dim(),
		Splits: make([]mapreduce.Split, (len(points)+pointsPerSplit-1)/pointsPerSplit),
		built:  start,
	}
	par.Do(len(points), par.Workers(0), func(_, lo, hi int) {
		for s := range in.Splits {
			i := s * pointsPerSplit
			j := min(i+pointsPerSplit, len(points))
			if mid := (i + j) / 2; mid < lo || mid >= hi {
				continue
			}
			in.Splits[s] = mapreduce.Split{
				Name: fmt.Sprintf("mem-%06d", s),
				Data: codec.EncodePoints(points[i:j]),
			}
		}
	})
	in.buildTook = time.Since(start)
	return in, nil
}

// bytes is the encoded size of every split.
func (in *Input) bytes() int64 {
	var n int64
	for _, s := range in.Splits {
		n += int64(len(s.Data))
	}
	return n
}

// Package core is the DOD driver: it wires the preprocessing job (sampling
// + plan generation, Fig. 6 top) and the outlier-detection job (Fig. 2/3)
// over the MapReduce engine, implements the two-job Domain baseline the
// experiments compare against, and runs the supporting-area job (AreaJob)
// that DBSCAN, LOCI and kNN plug their reduce functions into.
package core

import (
	"fmt"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/mapreduce"
)

// Input is a dataset ready for MapReduce consumption: record-aligned splits
// plus the domain metadata the planners need.
type Input struct {
	Splits []mapreduce.Split
	Domain geom.Rect
	Count  int
	Dim    int
}

// InputFromPoints packages in-memory points into splits of at most
// pointsPerSplit points each. The domain is the bounding box of the data.
func InputFromPoints(points []geom.Point, pointsPerSplit int) (*Input, error) {
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
	}
	for i := 0; i < len(points); i += pointsPerSplit {
		j := i + pointsPerSplit
		if j > len(points) {
			j = len(points)
		}
		in.Splits = append(in.Splits, mapreduce.Split{
			Name: fmt.Sprintf("mem-%06d", i/pointsPerSplit),
			Data: codec.EncodePoints(points[i:j]),
		})
	}
	return in, nil
}

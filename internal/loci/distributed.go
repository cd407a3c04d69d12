package loci

import (
	"encoding/binary"
	"sort"

	"dod/internal/codec"
	"dod/internal/core"
	"dod/internal/geom"
	"dod/internal/mapreduce"
)

// DetectDistributed runs the LOCI test as core's supporting-area job with
// supporting areas of (1+α)r — wide enough that every home point's
// sampling neighborhood, and every sampled neighbor's counting
// neighborhood, is locally present. Results match Detect exactly.
func DetectDistributed(points []geom.Point, params Params, opts core.AreaOptions) ([]uint64, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	job, err := core.NewAreaJob(points, params.SupportRadius(), opts)
	if err != nil {
		return nil, err
	}
	out, err := job.Run(func(key uint64, home, support []geom.Point, emit mapreduce.Emit) error {
		for _, id := range evaluate(home, support, params) {
			emit(key, binary.AppendUvarint(nil, id))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ids := make([]uint64, 0, len(out))
	for _, pair := range out {
		id, n := binary.Uvarint(pair.Value)
		if n <= 0 {
			return nil, codec.ErrTruncated
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

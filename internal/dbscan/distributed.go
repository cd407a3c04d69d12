package dbscan

import (
	"encoding/binary"

	"dod/internal/codec"
	"dod/internal/core"
	"dod/internal/geom"
	"dod/internal/mapreduce"
)

// fact flag bits.
const (
	flagCore byte = 1 << 0
	flagHome byte = 1 << 1
)

// encodeFact serializes a localLabel (partition travels as the record key).
func encodeFact(f localLabel) []byte {
	var flags byte
	if f.isCore {
		flags |= flagCore
	}
	if f.isHome {
		flags |= flagHome
	}
	buf := []byte{flags}
	buf = binary.AppendUvarint(buf, f.pointID)
	buf = binary.AppendVarint(buf, int64(f.label))
	return buf
}

func decodeFact(partition int, buf []byte) (localLabel, error) {
	if len(buf) < 1 {
		return localLabel{}, codec.ErrTruncated
	}
	flags := buf[0]
	rest := buf[1:]
	id, n := binary.Uvarint(rest)
	if n <= 0 {
		return localLabel{}, codec.ErrTruncated
	}
	rest = rest[n:]
	label, n := binary.Varint(rest)
	if n <= 0 {
		return localLabel{}, codec.ErrTruncated
	}
	return localLabel{
		pointID:   id,
		partition: partition,
		label:     int(label),
		isCore:    flags&flagCore != 0,
		isHome:    flags&flagHome != 0,
	}, nil
}

// ClusterDistributed runs DBSCAN as core's supporting-area job with eps
// supporting areas — the adaptation of the DOD framework that Sec. III-B
// describes. The result is identical to Cluster's up to cluster
// renumbering and the inherent DBSCAN border-point ambiguity.
func ClusterDistributed(points []geom.Point, params Params, opts core.AreaOptions) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	job, err := core.NewAreaJob(points, params.Eps, opts)
	if err != nil {
		return nil, err
	}
	out, err := job.Run(func(key uint64, home, support []geom.Point, emit mapreduce.Emit) error {
		facts, _ := clusterLocal(home, support, params)
		for _, f := range facts {
			emit(key, encodeFact(f))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	perPoint := make(map[uint64][]localLabel, len(points))
	for _, pair := range out {
		f, err := decodeFact(int(pair.Key), pair.Value)
		if err != nil {
			return nil, err
		}
		perPoint[f.pointID] = append(perPoint[f.pointID], f)
	}
	return reconcile(perPoint), nil
}

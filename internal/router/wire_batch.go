package router

import (
	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/stream"
)

// The two bodies of the two-wave segment protocol (coalesce.go). Wave one
// is a multi-probe /v1/support body — every staged point's foreign cells on
// one shard, plus in its header the IDs of the FIFO victims that shard owns,
// whose coordinates come back in the response; scoring sends the same body
// with a Limit and no victims. Wave two is an /v1/shard/ingest_batch body:
// one shard's ORDERED list of the segment's operations on cells it owns,
// one frameOp per operation, in the global window's order — the ops the
// shard applies, logs for its standby and the standby replays, as one type
// (stream.ShardOp) from here to there. Frame kinds and sealing are wire.go's.

// PathShardIngestBatch applies one shard's ordered share of a segment in
// one exchange; see EncodeIngestBatch.
const PathShardIngestBatch = "/v1/shard/ingest_batch"

// frameOp is one stream.ShardOp (stream.AppendShardOp) — the same payload a
// replicated shard's op log carries to its standby.
const frameOp byte = 5

// SupportProbe is one (point, cells) pair of a multi-probe support body.
type SupportProbe struct {
	Point geom.Point
	Cells [][]int64
}

// IngestBatchHeader is the control header of a batched shard ingest.
type IngestBatchHeader struct {
	ArrivedNs int64 `json:"arrivedNs"`
	Count     int   `json:"count"`
}

// IngestBatchResponse answers a batched shard ingest with one result per
// OpAdmit, in op order. Error reports a whole-batch failure (e.g. a corrupt
// body); per-admission failures live in their Results slot.
type IngestBatchResponse struct {
	Results   []IngestResponse `json:"results,omitempty"`
	Error     string           `json:"error,omitempty"`
	RequestID string           `json:"request_id,omitempty"`
}

// EncodeSupportBatch builds a sealed multi-probe support body: the header,
// then one (point, cells) frame pair per probe, paired by order.
func EncodeSupportBatch(hdr SupportHeader, probes []SupportProbe) []byte {
	body := codec.AppendHeaderFrame(nil, hdr)
	for _, pr := range probes {
		body = codec.AppendFrame(body, framePoint, codec.AppendPoint(nil, pr.Point))
		body = codec.AppendFrame(body, frameCells, stream.AppendCells(nil, pr.Point.Dim(), pr.Cells))
	}
	return codec.AppendSumFrame(body)
}

// DecodeSupportBatch parses a sealed support body into its probes; a body
// may carry no probe only if its header asks for victims.
func DecodeSupportBatch(body []byte) (SupportHeader, []SupportProbe, error) {
	var hdr SupportHeader
	var probes []SupportProbe
	cells := 0 // cell frames seen; the i-th belongs to the i-th point frame
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) (err error) {
		switch {
		case kind == framePoint:
			probes = append(probes, SupportProbe{})
			probes[len(probes)-1].Point, _, err = codec.DecodePoint(payload)
		case kind == frameCells && cells < len(probes):
			probes[cells].Cells, err = stream.DecodeCells(payload, probes[cells].Point.Dim())
			cells++
		default:
			err = unexpectedFrame("support", kind)
		}
		return err
	})
	if err != nil {
		return hdr, nil, err
	}
	if cells != len(probes) || (len(probes) == 0 && len(hdr.Victims) == 0) {
		return hdr, nil, codec.WireErrorf("router: support body has %d point and %d cell frames", len(probes), cells)
	}
	return hdr, probes, nil
}

// EncodeIngestBatch builds a sealed batched-ingest body; frame order is op
// order.
func EncodeIngestBatch(hdr IngestBatchHeader, ops []stream.ShardOp) []byte {
	body := codec.AppendHeaderFrame(nil, hdr)
	var payload []byte
	for i := range ops {
		payload = stream.AppendShardOp(payload[:0], &ops[i])
		body = codec.AppendFrame(body, frameOp, payload)
	}
	return codec.AppendSumFrame(body)
}

// DecodeIngestBatch parses a sealed batched-ingest body.
func DecodeIngestBatch(body []byte) (IngestBatchHeader, []stream.ShardOp, error) {
	var hdr IngestBatchHeader
	var ops []stream.ShardOp
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) error {
		if kind != frameOp {
			return unexpectedFrame("ingest-batch", kind)
		}
		ops = append(ops, stream.ShardOp{})
		return stream.DecodeShardOp(payload, &ops[len(ops)-1])
	})
	if err != nil {
		return hdr, nil, err
	}
	if len(ops) != hdr.Count {
		return hdr, nil, codec.WireErrorf("router: op count %d != header %d", len(ops), hdr.Count)
	}
	return hdr, ops, nil
}

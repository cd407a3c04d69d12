package router

import (
	"encoding/binary"

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
// one frameOp per operation, in the global window's order. Frame kinds and
// sealing are wire.go's.

// PathShardIngestBatch applies one shard's ordered share of a segment in
// one exchange; see EncodeIngestBatch.
const PathShardIngestBatch = "/v1/shard/ingest_batch"

// frameOp is one stream.ShardOp: a kind byte, then for OpAdmit a codec
// point record, uvarint sequence number and uvarint settled foreign
// neighbor count; for OpEvict a uvarint ID; for OpSupport a codec point
// record, a varint delta and a cell list (as in frameCells).
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
	body := appendJSONHeader(nil, hdr)
	for _, pr := range probes {
		body = codec.AppendFrame(body, framePoint, codec.AppendPoint(nil, pr.Point))
		body = codec.AppendFrame(body, frameCells, appendCells(nil, pr.Point.Dim(), pr.Cells))
	}
	return codec.AppendSumFrame(body)
}

// DecodeSupportBatch parses a sealed support body into its probes; a body
// may carry no probe only if its header asks for victims.
func DecodeSupportBatch(body []byte) (SupportHeader, []SupportProbe, error) {
	var hdr SupportHeader
	frames, err := decodeSealed(body)
	if err != nil {
		return hdr, nil, err
	}
	if err := frames.header(&hdr); err != nil {
		return hdr, nil, err
	}
	if len(frames.points) != len(frames.cells) || (len(frames.points) == 0 && len(hdr.Victims) == 0) {
		return hdr, nil, codec.WireErrorf("router: support body has %d point and %d cell frames",
			len(frames.points), len(frames.cells))
	}
	probes := make([]SupportProbe, len(frames.points))
	for i := range frames.points {
		pt, _, err := codec.DecodePoint(frames.points[i])
		if err != nil {
			return hdr, nil, err
		}
		cells, err := decodeCells(frames.cells[i])
		if err != nil {
			return hdr, nil, err
		}
		probes[i] = SupportProbe{Point: pt, Cells: cells}
	}
	return hdr, probes, nil
}

// EncodeIngestBatch builds a sealed batched-ingest body; frame order is op
// order.
func EncodeIngestBatch(hdr IngestBatchHeader, ops []stream.ShardOp) []byte {
	body := appendJSONHeader(nil, hdr)
	var payload []byte
	for i := range ops {
		op := &ops[i]
		payload = append(payload[:0], byte(op.Kind))
		switch op.Kind {
		case stream.OpAdmit:
			payload = codec.AppendPoint(payload, op.Point)
			payload = binary.AppendUvarint(payload, op.Seq)
			payload = binary.AppendUvarint(payload, uint64(op.Foreign))
		case stream.OpEvict:
			payload = binary.AppendUvarint(payload, op.ID)
		case stream.OpSupport:
			payload = codec.AppendPoint(payload, op.Point)
			payload = binary.AppendVarint(payload, int64(op.Delta))
			payload = appendCells(payload, op.Point.Dim(), op.Cells)
		}
		body = codec.AppendFrame(body, frameOp, payload)
	}
	return codec.AppendSumFrame(body)
}

// DecodeIngestBatch parses a sealed batched-ingest body.
func DecodeIngestBatch(body []byte) (IngestBatchHeader, []stream.ShardOp, error) {
	var hdr IngestBatchHeader
	frames, err := decodeSealed(body)
	if err != nil {
		return hdr, nil, err
	}
	if err := frames.header(&hdr); err != nil {
		return hdr, nil, err
	}
	if len(frames.ops) != hdr.Count {
		return hdr, nil, codec.WireErrorf("router: op count %d != header %d", len(frames.ops), hdr.Count)
	}
	ops := make([]stream.ShardOp, len(frames.ops))
	for i, raw := range frames.ops {
		if err := decodeOp(raw, &ops[i]); err != nil {
			return hdr, nil, err
		}
	}
	return hdr, ops, nil
}

// decodeOp parses one frameOp payload into op.
func decodeOp(raw []byte, op *stream.ShardOp) error {
	if len(raw) == 0 {
		return codec.WireErrorf("router: empty op frame")
	}
	op.Kind = stream.ShardOpKind(raw[0])
	off := 1
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(raw[off:])
		if n <= 0 {
			return 0, codec.WireErrorf("router: truncated op %s", what)
		}
		off += n
		return v, nil
	}
	var err error
	switch op.Kind {
	case stream.OpEvict:
		op.ID, err = uvarint("victim id")
		return err
	case stream.OpAdmit, stream.OpSupport:
	default:
		return codec.WireErrorf("router: unknown op kind %d", raw[0])
	}
	pt, n, err := codec.DecodePoint(raw[off:])
	if err != nil {
		return err
	}
	op.Point = pt
	off += n
	if op.Kind == stream.OpAdmit {
		if op.Seq, err = uvarint("seq"); err != nil {
			return err
		}
		foreign, err := uvarint("foreign count")
		op.Foreign = int(foreign)
		return err
	}
	delta, n := binary.Varint(raw[off:])
	if n <= 0 || (delta != 1 && delta != -1) {
		return codec.WireErrorf("router: bad op support delta")
	}
	op.Delta = int(delta)
	op.Cells, err = decodeCells(raw[off+n:])
	return err
}

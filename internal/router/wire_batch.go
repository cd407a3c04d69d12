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
// one frameOp per operation, in the global window's order — the ops the
// shard applies, logs for its standby and the standby replays, as one type
// (stream.ShardOp) from here to there. Frame kinds and sealing are wire.go's.
//
// Both bodies are built on arenas and their bytes do not depend on it: an
// encoder sizes its body up front and writes each frame's payload straight
// into it (codec.CloseFrame), and a decoder carves every point's
// coordinates and every cell list out of one stream.Arena per body.

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

// Body-size hints. A frame head is a kind byte and a uvarint length, a
// codec point record a uvarint ID and dimension and eight bytes per
// coordinate, a cell list a uvarint dimension and count and a zigzag
// varint per coordinate. hintCellCoord covers cell coordinates within 2^20
// cells of the origin; a body of larger ones costs one more growth.
const (
	hintFrame     = 1 + binary.MaxVarintLen32
	hintVarint    = binary.MaxVarintLen64
	hintCellCoord = 3
	hintSeal      = 2*hintFrame + 8 // the header frame's head and the integrity frame
)

// pointHint sizes a framed dim-dimensional point record.
func pointHint(dim int) int { return hintFrame + 2*hintVarint + 8*dim }

// cellsHint sizes a framed list of n dim-dimensional cells.
func cellsHint(dim, n int) int { return hintFrame + 2*hintVarint + n*dim*hintCellCoord }

// EncodeSupportBatch builds a sealed multi-probe support body: the header,
// then one (point, cells) frame pair per probe, paired by order.
func EncodeSupportBatch(hdr SupportHeader, probes []SupportProbe) []byte {
	size := hintSeal + 32 + len(hdr.Victims)*21 // the JSON header: a limit, then each victim's digits
	for _, pr := range probes {
		size += pointHint(pr.Point.Dim()) + cellsHint(pr.Point.Dim(), len(pr.Cells))
	}
	body := codec.AppendHeaderFrame(make([]byte, 0, size), hdr)
	for _, pr := range probes {
		start := len(body)
		body = codec.CloseFrame(codec.AppendPoint(body, pr.Point), start, framePoint)
		start = len(body)
		body = codec.CloseFrame(stream.AppendCells(body, pr.Point.Dim(), pr.Cells), start, frameCells)
	}
	return codec.AppendSumFrame(body)
}

// DecodeSupportBatch parses a sealed support body into its probes, whose
// points and cells share one arena; a body may carry no probe only if its
// header asks for victims.
func DecodeSupportBatch(body []byte) (SupportHeader, []SupportProbe, error) {
	var hdr SupportHeader
	var probes []SupportProbe
	var arena stream.Arena
	cells := 0 // cell frames seen; the i-th belongs to the i-th point frame
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) (err error) {
		switch {
		case kind == framePoint:
			probes = append(probes, SupportProbe{})
			probes[len(probes)-1].Point, _, err = arena.DecodePoint(payload)
		case kind == frameCells && cells < len(probes):
			probes[cells].Cells, err = arena.DecodeCells(payload, probes[cells].Point.Dim())
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

// opHint sizes one framed op: its kind byte, a point record, and room for
// an admission's sequence number and foreign count or a support's delta and
// cell list.
func opHint(op *stream.ShardOp) int {
	d := op.Point.Dim()
	return 1 + pointHint(d) + 2*hintVarint + cellsHint(d, len(op.Cells))
}

// EncodeIngestBatch builds a sealed batched-ingest body; frame order is op
// order.
func EncodeIngestBatch(hdr IngestBatchHeader, ops []stream.ShardOp) []byte {
	size := hintSeal + 64 // the JSON header: an arrival instant and a count
	for i := range ops {
		size += opHint(&ops[i])
	}
	body := codec.AppendHeaderFrame(make([]byte, 0, size), hdr)
	for i := range ops {
		start := len(body)
		body = codec.CloseFrame(stream.AppendShardOp(body, &ops[i]), start, frameOp)
	}
	return codec.AppendSumFrame(body)
}

// DecodeIngestBatch parses a sealed batched-ingest body; the ops' points
// and cells share one arena.
func DecodeIngestBatch(body []byte) (IngestBatchHeader, []stream.ShardOp, error) {
	var hdr IngestBatchHeader
	var ops []stream.ShardOp
	var arena stream.Arena
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) error {
		if kind != frameOp {
			return unexpectedFrame("ingest-batch", kind)
		}
		if ops == nil {
			// An op frame is at least three bytes, which bounds a forged
			// header count by the body's length.
			ops = make([]stream.ShardOp, 0, max(0, min(hdr.Count, len(body)/3)))
		}
		ops = append(ops, stream.ShardOp{})
		return arena.DecodeShardOp(payload, &ops[len(ops)-1])
	})
	if err != nil {
		return hdr, nil, err
	}
	if len(ops) != hdr.Count {
		return hdr, nil, codec.WireErrorf("router: op count %d != header %d", len(ops), hdr.Count)
	}
	return hdr, ops, nil
}

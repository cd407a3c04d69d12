package router

import (
	"encoding/binary"
	"encoding/json"

	"dod/internal/codec"
	"dod/internal/geom"
)

// Shard wire protocol. Data-plane bodies (a segment's read-only support
// probes and its ordered op list, see wire_batch.go; import) and the export
// stream are sequences of internal/codec frames — a JSON header frame for
// control metadata, binary frames for points, cell lists, window entries
// and ops — sealed with a codec.FrameSum integrity frame, exactly like the
// distributed runtime's task bodies: transport corruption anywhere in a
// body is a typed decode failure the caller retries, never a silently
// wrong neighbor count. Responses and topology pushes are small JSON.
const (
	frameHeader byte = 1 // JSON control header
	framePoint  byte = 2 // one codec point record
	frameCells  byte = 3 // cell coordinate list
	frameEntry  byte = 4 // one window entry (point + seq + arrival + count + verdict)
)

// Shard-side endpoints; the router is the only intended caller.
// PathShardIngest and PathShardEvict are the retired per-point protocol's:
// no shard serves them and no router calls them, but traffic tallies (the
// benchmark's per-path call counts) still name them to show they stay at 0.
const (
	PathShardIngest   = "/v1/shard/ingest"
	PathShardEvict    = "/v1/shard/evict"
	PathSupport       = "/v1/support"
	PathShardExport   = "/v1/shard/export"
	PathShardImport   = "/v1/shard/import"
	PathShardTopology = "/v1/shard/topology"
)

// IngestResponse answers one admission of a batched shard ingest.
type IngestResponse struct {
	ID        uint64 `json:"id"`
	Seq       uint64 `json:"seq"`
	Neighbors int    `json:"neighbors"`
	Outlier   bool   `json:"outlier"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// SupportHeader is the control header of a boundary-support body, which is
// always read-only (Lemma 3.1: the owning shard's counts are sufficient —
// no point data crosses the wire, only counts). Limit > 0 early-terminates
// each probe's count, as scoring wants. Victims lists resident IDs whose
// coordinates the caller wants back: the router stores none, and needs an
// eviction victim's to settle the eviction's cross-shard half.
type SupportHeader struct {
	Limit   int      `json:"limit,omitempty"`
	Victims []uint64 `json:"victims,omitempty"`
}

// SupportResponse answers a support body with one count per probe in
// Counts, probe order. Victims answers SupportHeader.Victims, one
// coordinate vector per ID in request order (encoding/json round-trips
// float64 exactly).
type SupportResponse struct {
	Counts    []int       `json:"counts,omitempty"`
	Victims   [][]float64 `json:"victims,omitempty"`
	Error     string      `json:"error,omitempty"`
	RequestID string      `json:"request_id,omitempty"`
}

// TopologyResponse acknowledges a topology push.
type TopologyResponse struct {
	Epoch  int64  `json:"epoch"`
	Shard  string `json:"shard"`
	Points int    `json:"points"`
}

// ImportResponse acknowledges an entry import.
type ImportResponse struct {
	Imported  int    `json:"imported"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// Entry is one resident window entry on the wire — everything a successor
// shard needs to adopt the point during drain/handoff. Neighbor counts
// move verbatim: ownership names where a point is stored, not who its
// neighbors are, so relocation never changes any count.
type Entry struct {
	Point     geom.Point
	Seq       uint64
	ArrivedNs int64
	Count     int
	Outlier   bool
}

// appendJSONHeader appends a frameHeader frame carrying v as JSON.
func appendJSONHeader(dst []byte, v any) []byte {
	payload, err := json.Marshal(v)
	if err != nil {
		// All header types marshal; a failure is a programming error.
		panic("router: marshal wire header: " + err.Error())
	}
	return codec.AppendFrame(dst, frameHeader, payload)
}

// appendCells appends a cell list (a frameCells payload): uvarint dim,
// uvarint count, then count×dim varint cell coordinates.
func appendCells(dst []byte, dim int, cells [][]int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(dim))
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, c := range cells {
		for _, v := range c {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

// decodeCells parses a frameCells payload.
func decodeCells(payload []byte) ([][]int64, error) {
	dim, n := binary.Uvarint(payload)
	if n <= 0 || dim == 0 || dim > 1<<16 {
		return nil, codec.WireErrorf("router: bad cell frame dimension")
	}
	off := n
	count, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return nil, codec.WireErrorf("router: truncated cell frame")
	}
	off += n
	if count > uint64(len(payload[off:])) {
		return nil, codec.WireErrorf("router: cell count %d exceeds buffer", count)
	}
	cells := make([][]int64, 0, count)
	for i := uint64(0); i < count; i++ {
		c := make([]int64, dim)
		for d := range c {
			v, n := binary.Varint(payload[off:])
			if n <= 0 {
				return nil, codec.WireErrorf("router: truncated cell coordinate")
			}
			c[d] = v
			off += n
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// appendEntry appends one frameEntry frame.
func appendEntry(dst []byte, e Entry) []byte {
	payload := codec.AppendPoint(nil, e.Point)
	payload = binary.AppendUvarint(payload, e.Seq)
	payload = binary.AppendVarint(payload, e.ArrivedNs)
	payload = binary.AppendUvarint(payload, uint64(e.Count))
	if e.Outlier {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	return codec.AppendFrame(dst, frameEntry, payload)
}

// decodeEntry parses one frameEntry payload.
func decodeEntry(payload []byte) (Entry, error) {
	var e Entry
	pt, n, err := codec.DecodePoint(payload)
	if err != nil {
		return e, err
	}
	e.Point = pt
	off := n
	seq, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return e, codec.WireErrorf("router: truncated entry seq")
	}
	off += n
	e.Seq = seq
	arrived, n := binary.Varint(payload[off:])
	if n <= 0 {
		return e, codec.WireErrorf("router: truncated entry arrival")
	}
	off += n
	e.ArrivedNs = arrived
	count, n := binary.Uvarint(payload[off:])
	if n <= 0 {
		return e, codec.WireErrorf("router: truncated entry count")
	}
	off += n
	e.Count = int(count)
	if off >= len(payload) {
		return e, codec.WireErrorf("router: truncated entry verdict")
	}
	e.Outlier = payload[off] == 1
	return e, nil
}

// EncodeEntries builds a sealed entry-transfer body (export response /
// import request).
func EncodeEntries(entries []Entry) []byte {
	body := appendJSONHeader(nil, struct {
		Count int `json:"count"`
	}{len(entries)})
	for _, e := range entries {
		body = appendEntry(body, e)
	}
	return codec.AppendSumFrame(body)
}

// DecodeEntries parses a sealed entry-transfer body.
func DecodeEntries(body []byte) ([]Entry, error) {
	frames, err := decodeSealed(body)
	if err != nil {
		return nil, err
	}
	var hdr struct {
		Count int `json:"count"`
	}
	if err := frames.header(&hdr); err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(frames.entries))
	for _, raw := range frames.entries {
		e, err := decodeEntry(raw)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if len(entries) != hdr.Count {
		return nil, codec.WireErrorf("router: entry count %d != header %d", len(entries), hdr.Count)
	}
	return entries, nil
}

// wireFrames is a parsed, integrity-checked frame body.
type wireFrames struct {
	headerRaw []byte
	points    [][]byte
	cells     [][]byte
	entries   [][]byte
	ops       [][]byte
}

// decodeSealed strips the integrity frame and sorts the remaining frames
// by kind.
func decodeSealed(body []byte) (*wireFrames, error) {
	data, err := codec.StripSumFrame(body)
	if err != nil {
		return nil, err
	}
	f := &wireFrames{}
	off := 0
	for off < len(data) {
		kind, payload, n, err := codec.DecodeFrame(data[off:])
		if err != nil {
			return nil, err
		}
		off += n
		switch kind {
		case frameHeader:
			f.headerRaw = payload
		case framePoint:
			f.points = append(f.points, payload)
		case frameCells:
			f.cells = append(f.cells, payload)
		case frameEntry:
			f.entries = append(f.entries, payload)
		case frameOp:
			f.ops = append(f.ops, payload)
		default:
			return nil, codec.WireErrorf("router: unknown frame kind %d", kind)
		}
	}
	return f, nil
}

// header unmarshals the JSON header frame into v.
func (f *wireFrames) header(v any) error {
	if f.headerRaw == nil {
		return codec.WireErrorf("router: body lacks header frame")
	}
	if err := json.Unmarshal(f.headerRaw, v); err != nil {
		return codec.WireErrorf("router: bad header frame: %v", err)
	}
	return nil
}

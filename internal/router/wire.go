package router

import (
	"dod/internal/codec"
	"dod/internal/stream"
)

// Shard wire protocol. Data-plane bodies (a segment's read-only support
// probes and its ordered op list, see wire_batch.go; import) and the export
// stream are sequences of internal/codec frames — a codec.FrameHeader JSON
// frame for control metadata, binary frames for points, cell lists, window
// entries and ops — sealed with a codec.FrameSum integrity frame, exactly
// like the distributed runtime's task bodies: transport corruption anywhere
// in a body is a typed decode failure the caller retries, never a silently
// wrong neighbor count. This package owns the bodies — which frames, in what
// order, under which header; the payloads of ops, cell lists and entries are
// internal/stream's (stream/wire.go), shared with the replication hop.
// Responses and topology pushes are small JSON.
const (
	framePoint byte = 2 // one codec point record
	frameCells byte = 3 // cell coordinate list (stream.AppendCells)
	frameEntry byte = 4 // one window entry (stream.AppendEntry)
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

// EncodeEntries builds a sealed entry-transfer body (export response /
// import request): one frameEntry per resident. Neighbor counts move
// verbatim — ownership names where a point is stored, not who its neighbors
// are, so relocation never changes any count.
func EncodeEntries(entries []stream.ExportedEntry) []byte {
	body := codec.AppendHeaderFrame(nil, entriesHeader{len(entries)})
	var payload []byte
	for _, e := range entries {
		payload = stream.AppendEntry(payload[:0], e)
		body = codec.AppendFrame(body, frameEntry, payload)
	}
	return codec.AppendSumFrame(body)
}

// DecodeEntries parses a sealed entry-transfer body.
func DecodeEntries(body []byte) ([]stream.ExportedEntry, error) {
	var hdr entriesHeader
	var entries []stream.ExportedEntry
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) error {
		if kind != frameEntry {
			return unexpectedFrame("entry-transfer", kind)
		}
		e, _, err := stream.DecodeEntry(payload)
		entries = append(entries, e)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(entries) != hdr.Count {
		return nil, codec.WireErrorf("router: entry count %d != header %d", len(entries), hdr.Count)
	}
	return entries, nil
}

// entriesHeader is the control header of an entry-transfer body.
type entriesHeader struct {
	Count int `json:"count"`
}

func unexpectedFrame(body string, kind byte) error {
	return codec.WireErrorf("router: unexpected frame kind %d in %s body", kind, body)
}

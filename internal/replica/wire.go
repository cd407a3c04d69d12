package replica

import (
	"encoding/json"

	"dod/internal/codec"
	"dod/internal/stream"
)

// Replication endpoints served by a standby shard (apply, snapshot) and by
// every shard (status, digest). The digest path lives here rather than in
// the router wire tables because it belongs to the replication layer: a
// deterministic hash of window contents for anti-entropy checks.
const (
	PathApply    = "/v1/replica/apply"
	PathSnapshot = "/v1/replica/snapshot"
	PathStatus   = "/v1/replica/status"
	PathDigest   = "/v1/shard/digest"
)

// Replication frame kinds, after the codec.FrameHeader control header
// (bodies are sealed with codec.FrameSum).
const (
	frameOp    byte = 2 // one encoded op
	frameEntry byte = 3 // one snapshot window entry (stream.AppendEntry)
)

// ApplyHeader is the control header of an op-shipment body.
type ApplyHeader struct {
	// From is the primary shard's name; the standby adopts it as its own
	// identity for ownership decisions (a standby IS its primary, one
	// promotion away).
	From string `json:"from"`
	// Count is the number of op frames in the body.
	Count int `json:"count"`
	// Head is the primary's log head at send time, so the standby can
	// tell "applied everything shipped so far" from "caught up".
	Head uint64 `json:"head"`
}

// ApplyResponse acknowledges an op shipment.
type ApplyResponse struct {
	// Applied is the standby's highest applied sequence number — the
	// primary trims its log below it.
	Applied uint64 `json:"applied"`
	// Synced reports the standby has applied everything up to the
	// shipped head (readiness for promotion).
	Synced bool `json:"synced"`
	// NeedSnapshot asks the primary to bootstrap: the shipment started
	// past the standby's next expected seq (fresh standby, or one that
	// fell behind a trim).
	NeedSnapshot bool   `json:"need_snapshot,omitempty"`
	Error        string `json:"error,omitempty"`
}

// EncodeApply builds a sealed op-shipment body from pre-encoded ops.
func EncodeApply(hdr ApplyHeader, ops [][]byte) []byte {
	body := codec.AppendHeaderFrame(nil, hdr)
	for _, op := range ops {
		body = codec.AppendFrame(body, frameOp, op)
	}
	return codec.AppendSumFrame(body)
}

// DecodeApply parses a sealed op-shipment body.
func DecodeApply(body []byte) (ApplyHeader, []*Op, error) {
	var hdr ApplyHeader
	var ops []*Op
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) error {
		if kind != frameOp {
			return codec.WireErrorf("replica: unknown apply frame kind %d", kind)
		}
		op, err := DecodeOp(payload)
		ops = append(ops, op)
		return err
	})
	if err != nil {
		return hdr, nil, err
	}
	if len(ops) != hdr.Count {
		return hdr, nil, codec.WireErrorf("replica: apply op count %d != header %d", len(ops), hdr.Count)
	}
	return hdr, ops, nil
}

// Snapshot is the bootstrap payload: the primary's full window slice at
// log position Seq, plus the topology the standby should hold.
type Snapshot struct {
	From     string
	Seq      uint64
	Topology []byte // raw topology JSON; nil before the first push
	Entries  []stream.ExportedEntry
}

// snapshotHeader is the JSON header frame of a snapshot body.
type snapshotHeader struct {
	From     string          `json:"from"`
	Seq      uint64          `json:"seq"`
	Count    int             `json:"count"`
	Topology json.RawMessage `json:"topology,omitempty"`
}

// SnapshotResponse acknowledges a bootstrap snapshot.
type SnapshotResponse struct {
	Applied uint64 `json:"applied"`
	Error   string `json:"error,omitempty"`
}

// EncodeSnapshot builds a sealed bootstrap body.
func EncodeSnapshot(s *Snapshot) []byte {
	body := codec.AppendHeaderFrame(nil, snapshotHeader{
		From: s.From, Seq: s.Seq, Count: len(s.Entries), Topology: s.Topology,
	})
	var payload []byte
	for _, e := range s.Entries {
		payload = stream.AppendEntry(payload[:0], e)
		body = codec.AppendFrame(body, frameEntry, payload)
	}
	return codec.AppendSumFrame(body)
}

// DecodeSnapshot parses a sealed bootstrap body.
func DecodeSnapshot(body []byte) (*Snapshot, error) {
	var hdr snapshotHeader
	s := &Snapshot{}
	err := codec.DecodeSealed(body, &hdr, func(kind byte, payload []byte) error {
		if kind != frameEntry {
			return codec.WireErrorf("replica: unknown snapshot frame kind %d", kind)
		}
		e, _, err := stream.DecodeEntry(payload)
		s.Entries = append(s.Entries, e)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(s.Entries) != hdr.Count {
		return nil, codec.WireErrorf("replica: snapshot entry count %d != header %d", len(s.Entries), hdr.Count)
	}
	s.From, s.Seq = hdr.From, hdr.Seq
	s.Topology = append([]byte(nil), hdr.Topology...)
	return s, nil
}

// StatusResponse answers GET /v1/replica/status on either role.
type StatusResponse struct {
	Role string `json:"role"` // "primary", "standby" or "none"
	// Primary side: log head and the standby's acked position.
	Head  uint64 `json:"head,omitempty"`
	Acked uint64 `json:"acked,omitempty"`
	// Standby side: applied position, catch-up and promotion state.
	Applied  uint64 `json:"applied"`
	Synced   bool   `json:"synced"`
	Promoted bool   `json:"promoted,omitempty"`
}

// DigestResponse answers GET /v1/shard/digest: a deterministic FNV-64a
// hash over the window contents in canonical (global-sequence) order. Two
// windows with equal digests hold bit-identical verdict state; Seq anchors
// the digest to a log position (primary: head; standby: applied).
type DigestResponse struct {
	Shard  string `json:"shard"`
	Digest string `json:"digest"`
	Seq    uint64 `json:"seq"`
	Points int    `json:"points"`
}

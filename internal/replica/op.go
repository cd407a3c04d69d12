// Package replica implements warm-standby replication for one shard's
// slice of the sliding window (stream.ShardWindow). The primary appends
// every successful window mutation — each stream.ShardOp of a router
// segment exactly as it was applied, each entry import — plus the
// serving-layer context a faithful stand-in needs (topology epochs,
// idempotency-cache entries) to a per-shard sequence-numbered op log (Log),
// and an asynchronous Shipper replays the log in order against the
// standby's /v1/replica endpoints. The segment is the log: a standby feeds
// the logged ShardOps to the same ShardWindow.ApplyOps the primary ran, so
// replayed in log order they rebuild the primary's window bit for bit. The
// window exposes a deterministic digest at any applied sequence number,
// which is the anti-entropy check the failover tests and the router's
// promotion transaction both lean on.
//
// Bodies on the replication hop use the same discipline — and for ops,
// entries and cell lists the same codec (internal/stream/wire.go) — as the
// shard wire protocol: internal/codec frames sealed with a FrameSum
// integrity frame, so transport corruption is a typed decode failure the
// shipper retries, never silently divergent standby state.
package replica

import (
	"encoding/binary"

	"dod/internal/codec"
	"dod/internal/stream"
)

// Kind tags one replicated op.
type Kind byte

const (
	// KindWindow is one successful step of a router segment: the
	// stream.ShardOp the primary applied, and the instant it applied it at.
	KindWindow Kind = iota + 1
	// KindImport adopts drained entries with their live bookkeeping.
	KindImport
	// KindTopology installs an ownership epoch (raw topology JSON), so a
	// pre-promotion standby tracks the cluster view without the router
	// ever addressing it directly.
	KindTopology
	// KindDedupe seeds one idempotency-cache entry (request ID → recorded
	// response), so a router retry that lands on the promoted standby
	// replays the same bytes the dead primary answered.
	KindDedupe
)

// Op is one replicated mutation. Seq is its log position (assigned by
// Log.Append); the remaining fields are kind-specific.
type Op struct {
	Seq  uint64
	Kind Kind

	// KindWindow: the op, and the `now` the primary's ApplyOps ran it with
	// (its batch's arrival instant).
	ShardOp   stream.ShardOp
	ArrivedNs int64

	// KindImport.
	Entries []stream.ExportedEntry

	// KindTopology (raw topology JSON) and KindDedupe (recorded response).
	Raw []byte

	// KindDedupe.
	ReqID  string
	Status int
}

// encodeOp serializes one op: kind byte, uvarint log seq, then the
// kind-specific payload.
func encodeOp(dst []byte, op *Op) []byte {
	dst = append(dst, byte(op.Kind))
	dst = binary.AppendUvarint(dst, op.Seq)
	switch op.Kind {
	case KindWindow:
		dst = binary.AppendVarint(dst, op.ArrivedNs)
		dst = stream.AppendShardOp(dst, &op.ShardOp)
	case KindImport:
		dst = binary.AppendUvarint(dst, uint64(len(op.Entries)))
		for _, e := range op.Entries {
			dst = stream.AppendEntry(dst, e)
		}
	case KindTopology:
		dst = append(dst, op.Raw...)
	case KindDedupe:
		dst = binary.AppendUvarint(dst, uint64(op.Status))
		dst = binary.AppendUvarint(dst, uint64(len(op.ReqID)))
		dst = append(dst, op.ReqID...)
		dst = append(dst, op.Raw...)
	}
	return dst
}

// DecodeOp parses one encoded op. Raw fields are copied, not aliased, so
// the op outlives the wire buffer it came from.
func DecodeOp(buf []byte) (*Op, error) {
	if len(buf) < 1 {
		return nil, codec.WireErrorf("replica: empty op")
	}
	op := &Op{Kind: Kind(buf[0])}
	off := 1
	seq, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, codec.WireErrorf("replica: truncated op seq")
	}
	op.Seq = seq
	off += n
	switch op.Kind {
	case KindWindow:
		arrived, n := binary.Varint(buf[off:])
		if n <= 0 {
			return nil, codec.WireErrorf("replica: truncated window op arrival")
		}
		op.ArrivedNs = arrived
		if err := new(stream.Arena).DecodeShardOp(buf[off+n:], &op.ShardOp); err != nil {
			return nil, err
		}
	case KindImport:
		count, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, codec.WireErrorf("replica: truncated import count")
		}
		off += n
		if count > uint64(len(buf[off:])) {
			return nil, codec.WireErrorf("replica: import count %d exceeds buffer", count)
		}
		op.Entries = make([]stream.ExportedEntry, 0, count)
		for i := uint64(0); i < count; i++ {
			e, n, err := stream.DecodeEntry(buf[off:])
			if err != nil {
				return nil, err
			}
			op.Entries = append(op.Entries, e)
			off += n
		}
	case KindTopology:
		op.Raw = append([]byte(nil), buf[off:]...)
	case KindDedupe:
		status, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, codec.WireErrorf("replica: truncated dedupe status")
		}
		op.Status = int(status)
		off += n
		idLen, n := binary.Uvarint(buf[off:])
		if n <= 0 || idLen > uint64(len(buf[off+n:])) {
			return nil, codec.WireErrorf("replica: truncated dedupe request id")
		}
		off += n
		op.ReqID = string(buf[off : off+int(idLen)])
		off += int(idLen)
		op.Raw = append([]byte(nil), buf[off:]...)
	default:
		return nil, codec.WireErrorf("replica: unknown op kind %d", op.Kind)
	}
	return op, nil
}

// Package replica implements warm-standby replication for one shard's
// slice of the sliding window (stream.ShardWindow). The primary appends
// every successful window mutation — admission, eviction, boundary support
// delta, entry import, plus the serving-layer context a faithful stand-in
// needs (topology epochs, idempotency-cache entries) — to a per-shard
// sequence-numbered op log (Log), and an asynchronous Shipper replays the
// log in order against the standby's /v1/replica endpoints. Replayed in
// log order, the ops rebuild the primary's window bit for bit: the window
// exposes a deterministic digest at any applied sequence number, which is
// the anti-entropy check the failover tests and the router's promotion
// transaction both lean on.
//
// Bodies on the replication hop use the same discipline as the shard wire
// protocol: internal/codec frames sealed with a FrameSum integrity frame,
// so transport corruption is a typed decode failure the shipper retries,
// never silently divergent standby state.
package replica

import (
	"encoding/binary"
	"time"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/stream"
)

// Kind tags one replicated window mutation.
type Kind byte

const (
	// KindAdmit is one point admission with the foreign neighbor count the
	// router had settled for it.
	KindAdmit Kind = iota + 1
	// KindEvict expires one resident by ID. Its neighbors on other shards
	// lose their count through those shards' own KindSupport ops.
	KindEvict
	// KindSupport applies the ±1 another shard's admission or eviction owes
	// this shard's residents in a cell set.
	KindSupport
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

	// KindAdmit; Point is shared with KindSupport.
	Point     geom.Point
	PointSeq  uint64 // router-assigned global sequence number
	ArrivedNs int64
	Foreign   int

	// KindEvict.
	ID uint64

	// KindSupport.
	Cells [][]int64
	Delta int

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
	case KindAdmit:
		dst = codec.AppendPoint(dst, op.Point)
		dst = binary.AppendUvarint(dst, op.PointSeq)
		dst = binary.AppendVarint(dst, op.ArrivedNs)
		dst = binary.AppendUvarint(dst, uint64(op.Foreign))
	case KindEvict:
		dst = binary.AppendUvarint(dst, op.ID)
	case KindSupport:
		dst = binary.AppendVarint(dst, int64(op.Delta))
		dst = codec.AppendPoint(dst, op.Point)
		dst = appendCells(dst, op.Cells)
	case KindImport:
		dst = binary.AppendUvarint(dst, uint64(len(op.Entries)))
		for _, e := range op.Entries {
			dst = appendEntry(dst, e)
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
	case KindAdmit:
		pt, n, err := codec.DecodePoint(buf[off:])
		if err != nil {
			return nil, err
		}
		op.Point = pt
		off += n
		fields := []struct {
			dst    *uint64
			signed bool
		}{{dst: &op.PointSeq}, {signed: true}, {}}
		for i, f := range fields {
			if f.signed {
				v, n := binary.Varint(buf[off:])
				if n <= 0 {
					return nil, codec.WireErrorf("replica: truncated admit op field %d", i)
				}
				op.ArrivedNs = v
				off += n
				continue
			}
			v, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, codec.WireErrorf("replica: truncated admit op field %d", i)
			}
			off += n
			switch i {
			case 0:
				op.PointSeq = v
			case 2:
				op.Foreign = int(v)
			}
		}
	case KindEvict:
		id, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, codec.WireErrorf("replica: truncated evict op")
		}
		op.ID = id
	case KindSupport:
		delta, n := binary.Varint(buf[off:])
		if n <= 0 {
			return nil, codec.WireErrorf("replica: truncated support delta")
		}
		op.Delta = int(delta)
		off += n
		pt, n, err := codec.DecodePoint(buf[off:])
		if err != nil {
			return nil, err
		}
		op.Point = pt
		off += n
		cells, _, err := decodeCells(buf[off:])
		if err != nil {
			return nil, err
		}
		op.Cells = cells
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
			e, n, err := decodeEntry(buf[off:])
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

// appendCells appends a cell list: uvarint dim, uvarint count, then
// count×dim varint coordinates (the shard wire's cell shape).
func appendCells(dst []byte, cells [][]int64) []byte {
	dim := 0
	if len(cells) > 0 {
		dim = len(cells[0])
	}
	dst = binary.AppendUvarint(dst, uint64(dim))
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, c := range cells {
		for _, v := range c {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

func decodeCells(buf []byte) ([][]int64, int, error) {
	dim, n := binary.Uvarint(buf)
	if n <= 0 || dim > 1<<16 {
		return nil, 0, codec.WireErrorf("replica: bad cell list dimension")
	}
	off := n
	count, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, 0, codec.WireErrorf("replica: truncated cell list")
	}
	off += n
	if count > uint64(len(buf[off:]))+1 {
		return nil, 0, codec.WireErrorf("replica: cell count %d exceeds buffer", count)
	}
	cells := make([][]int64, 0, count)
	for i := uint64(0); i < count; i++ {
		c := make([]int64, dim)
		for d := range c {
			v, n := binary.Varint(buf[off:])
			if n <= 0 {
				return nil, 0, codec.WireErrorf("replica: truncated cell coordinate")
			}
			c[d] = v
			off += n
		}
		cells = append(cells, c)
	}
	return cells, off, nil
}

// appendEntry appends one window entry (point, seq, arrival, count,
// verdict) — the snapshot and import element shape.
func appendEntry(dst []byte, e stream.ExportedEntry) []byte {
	dst = codec.AppendPoint(dst, e.Point)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendVarint(dst, e.Arrived.UnixNano())
	dst = binary.AppendUvarint(dst, uint64(e.Count))
	if e.Outlier {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeEntry(buf []byte) (stream.ExportedEntry, int, error) {
	var e stream.ExportedEntry
	pt, n, err := codec.DecodePoint(buf)
	if err != nil {
		return e, 0, err
	}
	e.Point = pt
	off := n
	seq, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return e, 0, codec.WireErrorf("replica: truncated entry seq")
	}
	e.Seq = seq
	off += n
	arrived, n := binary.Varint(buf[off:])
	if n <= 0 {
		return e, 0, codec.WireErrorf("replica: truncated entry arrival")
	}
	e.Arrived = time.Unix(0, arrived)
	off += n
	count, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return e, 0, codec.WireErrorf("replica: truncated entry count")
	}
	e.Count = int(count)
	off += n
	if off >= len(buf) {
		return e, 0, codec.WireErrorf("replica: truncated entry verdict")
	}
	e.Outlier = buf[off] == 1
	return e, off + 1, nil
}

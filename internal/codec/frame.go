package codec

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
)

// Frames are the envelope of the distributed runtime's task and result
// messages (internal/dist): a message body is a sequence of frames, each a
// kind byte, a uvarint length, and the payload. Control metadata (a JSON
// header) and bulk data (splits, key groups, output pairs) travel as
// separate frames of one body, so the data plane stays in this package's
// binary format end to end.

// WireErrorf builds a malformed-wire-data error wrapping errs.ErrWireFormat,
// for callers (internal/dist) that layer messages on this wire format and
// want their parse failures in the same error family.
func WireErrorf(format string, args ...any) error {
	return corrupt(format, args...)
}

// MaxFramePayload bounds a single frame. Reduce groups carry whole
// partitions, so the bound is generous; it exists to turn a forged length
// into a typed error rather than an attempted huge allocation.
const MaxFramePayload = 1 << 31

// FrameSum is the reserved kind of the trailing integrity frame: its
// 8-byte payload is the Checksum of every body byte before it.
// Transport-level corruption (a flipped bit in an HTTP body) would
// otherwise have a small but real chance of decoding into a *valid*
// message with wrong data — a silently wrong detection result. With the
// sum frame, corruption anywhere in the body is always a typed
// ErrWireFormat failure the runtime can retry, never an accepted lie.
const FrameSum byte = 0x7f

// castagnoli is the CRC-32C table, built once.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the integrity sum of the frame layer: CRC-32 (IEEE) in the
// high word and CRC-32C (Castagnoli) in the low word. Each CRC alone
// detects every single-bit error and every burst of up to 32 bits at any
// length; the two generator polynomials differ, so an error slips through
// only if it defeats both, which keeps the 64 check bits of the frame.
// Both run in hardware (CLMUL and SSE4.2 on amd64) at memory speed. This
// is corruption detection, not authentication.
func Checksum(data []byte) uint64 {
	return uint64(crc32.ChecksumIEEE(data))<<32 | uint64(crc32.Checksum(data, castagnoli))
}

// AppendSumFrame seals buf with a FrameSum frame covering everything
// currently in it. Call last, after every data frame.
func AppendSumFrame(buf []byte) []byte {
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], Checksum(buf))
	return AppendFrame(buf, FrameSum, sum[:])
}

// StripSumFrame scans body's frame sequence, requires the final frame to
// be a FrameSum whose checksum covers everything before it, and returns
// the body with the sum frame removed. Any mismatch, a missing sum, or
// trailing bytes after it fail with an ErrWireFormat-family error.
func StripSumFrame(body []byte) ([]byte, error) {
	off := 0
	for off < len(body) {
		kind, payload, n, err := DecodeFrame(body[off:])
		if err != nil {
			return nil, err
		}
		if kind == FrameSum {
			if off+n != len(body) {
				return nil, corrupt("codec: %d bytes after integrity frame", len(body)-off-n)
			}
			if len(payload) != 8 {
				return nil, corrupt("codec: integrity frame payload is %d bytes, want 8", len(payload))
			}
			if got, want := Checksum(body[:off]), binary.LittleEndian.Uint64(payload); got != want {
				return nil, corrupt("codec: integrity checksum mismatch (corrupted in transit?)")
			}
			return body[:off], nil
		}
		off += n
	}
	return nil, corrupt("codec: message lacks integrity frame")
}

// FrameHeader is the kind of the JSON control-header frame of a sealed body
// (dist task and result messages, router wire protocol, replication hop).
const FrameHeader byte = 1

// AppendHeaderFrame appends a FrameHeader frame carrying v as JSON.
func AppendHeaderFrame(dst []byte, v any) []byte {
	payload, err := json.Marshal(v)
	if err != nil {
		// All header types marshal; a failure is a programming error.
		panic("codec: marshal header frame: " + err.Error())
	}
	return AppendFrame(dst, FrameHeader, payload)
}

// DecodeSealed checks and strips body's integrity frame, unmarshals its
// first frame — which must be the one FrameHeader frame — into hdr, and
// hands every later frame to fn in body order, so fn already sees the
// header. Payloads alias body.
func DecodeSealed(body []byte, hdr any, fn func(kind byte, payload []byte) error) error {
	data, err := StripSumFrame(body)
	if err != nil {
		return err
	}
	kind, payload, n, err := DecodeFrame(data)
	if err != nil {
		return err
	}
	if kind != FrameHeader {
		return corrupt("codec: body starts with frame kind %d, want header", kind)
	}
	if err := json.Unmarshal(payload, hdr); err != nil {
		return corrupt("codec: bad header frame: %v", err)
	}
	for off := n; off < len(data); off += n {
		kind, payload, n, err = DecodeFrame(data[off:])
		if err != nil {
			return err
		}
		if kind == FrameHeader {
			return corrupt("codec: second header frame")
		}
		if err := fn(kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// AppendFrame appends a (kind, length, payload) frame to dst.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// CloseFrame turns the payload appended to dst since start into one frame
// of the given kind, in place: the result holds exactly the bytes of
// AppendFrame(dst[:start], kind, payload), without a payload buffer of its
// own. Encoders that build a frame's payload with an Append function write
// it straight into the body and close it here.
func CloseFrame(dst []byte, start int, kind byte) []byte {
	n := len(dst) - start
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = kind
	h := 1 + binary.PutUvarint(hdr[1:], uint64(n))
	dst = append(dst, hdr[:h]...)
	copy(dst[start+h:], dst[start:start+n])
	copy(dst[start:], hdr[:h])
	return dst
}

// DecodeFrame decodes one frame from the front of buf, returning the kind,
// the payload (aliasing buf), and the bytes consumed. An empty buf returns
// ErrTruncated — iterate frames until the buffer is exhausted.
func DecodeFrame(buf []byte) (kind byte, payload []byte, n int, err error) {
	if len(buf) < 1 {
		return 0, nil, 0, ErrTruncated
	}
	kind = buf[0]
	size, m := binary.Uvarint(buf[1:])
	if m <= 0 {
		return 0, nil, 0, ErrTruncated
	}
	off := 1 + m
	if size > MaxFramePayload {
		return 0, nil, 0, corrupt("codec: frame payload %d exceeds limit", size)
	}
	if uint64(len(buf[off:])) < size {
		return 0, nil, 0, ErrTruncated
	}
	return kind, buf[off : off+int(size)], off + int(size), nil
}

// KV is one key/value record: a MapReduce intermediate or output pair
// (mapreduce.Pair is this type).
type KV struct {
	Key   uint64
	Value []byte
}

// AppendKVs appends a count-prefixed list of key/value records to dst.
func AppendKVs(dst []byte, kvs []KV) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(kvs)))
	for _, kv := range kvs {
		dst = binary.AppendUvarint(dst, kv.Key)
		dst = binary.AppendUvarint(dst, uint64(len(kv.Value)))
		dst = append(dst, kv.Value...)
	}
	return dst
}

// KVsLen is the length of AppendKVs(nil, kvs).
func KVsLen(kvs []KV) int {
	n := uvarintLen(uint64(len(kvs)))
	for _, kv := range kvs {
		n += uvarintLen(kv.Key) + uvarintLen(uint64(len(kv.Value))) + len(kv.Value)
	}
	return n
}

// FrameLen is the length of a frame around n payload bytes.
func FrameLen(n int) int {
	return 1 + uvarintLen(uint64(n)) + n
}

// AppendKVsFrame appends a frame of the given kind whose payload is the
// AppendKVs list of kvs, written straight into dst: the bytes of
// AppendFrame(dst, kind, AppendKVs(nil, kvs)) without a payload buffer.
func AppendKVsFrame(dst []byte, kind byte, kvs []KV) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(KVsLen(kvs)))
	return AppendKVs(dst, kvs)
}

// DecodeKVs decodes a list produced by AppendKVs. Values alias buf.
func DecodeKVs(buf []byte) ([]KV, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	off := n
	// A record is at least 2 bytes (key byte + zero-length value).
	if count > uint64(len(buf[off:])/2) {
		return nil, 0, corrupt("codec: count %d exceeds buffer capacity", count)
	}
	kvs := make([]KV, 0, count)
	for i := uint64(0); i < count; i++ {
		key, m := binary.Uvarint(buf[off:])
		if m <= 0 {
			return nil, 0, ErrTruncated
		}
		off += m
		size, m := binary.Uvarint(buf[off:])
		if m <= 0 {
			return nil, 0, ErrTruncated
		}
		off += m
		if size > MaxFramePayload || uint64(len(buf[off:])) < size {
			return nil, 0, ErrTruncated
		}
		kvs = append(kvs, KV{Key: key, Value: buf[off : off+int(size)]})
		off += int(size)
	}
	return kvs, off, nil
}

// AppendBytesList appends a count-prefixed list of byte strings to dst —
// the wire shape of one reduce group's value list.
func AppendBytesList(dst []byte, values [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	for _, v := range values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// GroupLen is the length of one reduce group's wire payload: key as a
// uvarint, then AppendBytesList(values). A body writer sizes the group's
// frame with it before writing the payload in place.
func GroupLen(key uint64, values [][]byte) int {
	n := uvarintLen(key) + uvarintLen(uint64(len(values)))
	for _, v := range values {
		n += uvarintLen(uint64(len(v))) + len(v)
	}
	return n
}

// DecodeBytesList decodes a list produced by AppendBytesList. Elements
// alias buf.
func DecodeBytesList(buf []byte) ([][]byte, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	off := n
	if count > uint64(len(buf[off:])) {
		return nil, 0, corrupt("codec: count %d exceeds buffer capacity", count)
	}
	values := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		size, m := binary.Uvarint(buf[off:])
		if m <= 0 {
			return nil, 0, ErrTruncated
		}
		off += m
		if size > MaxFramePayload || uint64(len(buf[off:])) < size {
			return nil, 0, ErrTruncated
		}
		values = append(values, buf[off:off+int(size)])
		off += int(size)
	}
	return values, off, nil
}

package codec

import (
	"encoding/binary"
	"slices"
)

// KVColumns is a list of key/value records held as three flat arrays: the
// keys, each value's end offset in Data, and Data, one arena holding every
// value back to back. None of the arrays holds a pointer, so a list of any
// length is three objects the garbage collector never scans, where a []KV
// is one slice header per record. Its wire form is AppendKVs'.
type KVColumns struct {
	Keys []uint64
	Ends []int // record i's value is Data[Ends[i-1]:Ends[i]], Ends[-1] being 0
	Data []byte
}

// Len returns the number of records.
func (c *KVColumns) Len() int { return len(c.Keys) }

// Value returns record i's value: a slice of Data with its capacity
// clipped, so an append to it cannot write into the next record.
func (c *KVColumns) Value(i int) []byte {
	start := 0
	if i > 0 {
		start = c.Ends[i-1]
	}
	return c.Data[start:c.Ends[i]:c.Ends[i]]
}

// Append adds a record, copying value into Data: the caller may reuse its
// buffer at once. Each array doubles when full.
func (c *KVColumns) Append(key uint64, value []byte) {
	if len(c.Keys) == cap(c.Keys) {
		c.Keys = slices.Grow(c.Keys, max(cap(c.Keys), 16))
		c.Ends = slices.Grow(c.Ends, cap(c.Keys)-len(c.Ends))
	}
	if len(value) > cap(c.Data)-len(c.Data) {
		c.Data = slices.Grow(c.Data, max(cap(c.Data), len(value), 256))
	}
	c.Keys = append(c.Keys, key)
	c.Data = append(c.Data, value...)
	c.Ends = append(c.Ends, len(c.Data))
}

// Pairs returns the records as a []KV whose values are Value's slices of
// Data.
func (c *KVColumns) Pairs() []KV {
	kvs := make([]KV, c.Len())
	for i := range kvs {
		kvs[i] = KV{Key: c.Keys[i], Value: c.Value(i)}
	}
	return kvs
}

// KVColumnsLen is the length of AppendKVColumns(nil, c).
func KVColumnsLen(c *KVColumns) int {
	n := uvarintLen(uint64(c.Len())) + len(c.Data)
	start := 0
	for i, key := range c.Keys {
		n += uvarintLen(key) + uvarintLen(uint64(c.Ends[i]-start))
		start = c.Ends[i]
	}
	return n
}

// AppendKVColumns appends c's records to dst as AppendKVs writes the same
// records: a count, then each key, value length and value.
func AppendKVColumns(dst []byte, c *KVColumns) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.Len()))
	for i, key := range c.Keys {
		v := c.Value(i)
		dst = binary.AppendUvarint(dst, key)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// AppendKVColumnsFrame appends a frame of the given kind whose payload is
// AppendKVColumns' list of c, written straight into dst.
func AppendKVColumnsFrame(dst []byte, kind byte, c *KVColumns) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(KVColumnsLen(c)))
	return AppendKVColumns(dst, c)
}

// DecodeKVColumns decodes a list produced by AppendKVs (or
// AppendKVColumns) into columnar form, accepting and rejecting exactly the
// inputs DecodeKVs does. A first pass checks the list and sums its value
// bytes, so each of the three arrays is allocated once at its final
// length, and only for a count the buffer can hold. Nothing aliases buf.
func DecodeKVColumns(buf []byte) (KVColumns, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return KVColumns{}, 0, ErrTruncated
	}
	// A record is at least 2 bytes (key byte + zero-length value).
	if count > uint64(len(buf[n:])/2) {
		return KVColumns{}, 0, corrupt("codec: count %d exceeds buffer capacity", count)
	}
	off, data := n, 0
	for i := uint64(0); i < count; i++ {
		_, m := binary.Uvarint(buf[off:])
		if m <= 0 {
			return KVColumns{}, 0, ErrTruncated
		}
		off += m
		size, m := binary.Uvarint(buf[off:])
		if m <= 0 {
			return KVColumns{}, 0, ErrTruncated
		}
		off += m
		if size > MaxFramePayload || uint64(len(buf[off:])) < size {
			return KVColumns{}, 0, ErrTruncated
		}
		off += int(size)
		data += int(size)
	}
	c := KVColumns{Keys: make([]uint64, 0, count), Ends: make([]int, 0, count), Data: make([]byte, 0, data)}
	off = n
	for i := uint64(0); i < count; i++ {
		key, m := binary.Uvarint(buf[off:])
		off += m
		size, m := binary.Uvarint(buf[off:])
		off += m
		c.Keys = append(c.Keys, key)
		c.Data = append(c.Data, buf[off:off+int(size)]...)
		c.Ends = append(c.Ends, len(c.Data))
		off += int(size)
	}
	return c, off, nil
}

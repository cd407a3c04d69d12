// Package codec implements the compact binary wire format used by the
// MapReduce shuffle and the simulated DFS. Encoding points to bytes (rather
// than passing pointers between map and reduce tasks) keeps the simulation
// honest: shuffle volume is measured in real serialized bytes, matching the
// communication costs the paper's single-pass design minimizes.
//
// Wire format of a point record:
//
//	uvarint  ID
//	uvarint  dim
//	dim × 8  coordinates (IEEE-754 little endian)
//
// A tagged point record (core/support flag of Fig. 3) prepends one tag byte.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dod/internal/errs"
	"dod/internal/geom"
)

// Record tags mirroring the "0-p"/"1-p" value prefixes in the paper's
// MapReduce pseudocode (Fig. 3).
const (
	TagCore    byte = 0 // the point is a core point of the keyed partition
	TagSupport byte = 1 // the point is a support point of the keyed partition
)

// ErrTruncated is returned when a buffer ends before a full record. It
// wraps errs.ErrWireFormat, as does every other decode failure in this
// package: malformed input yields a typed error, never a panic or an
// unbounded allocation.
var ErrTruncated = fmt.Errorf("%w: truncated record", errs.ErrWireFormat)

// corrupt builds an errs.ErrWireFormat-wrapping error with details.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errs.ErrWireFormat, fmt.Sprintf(format, args...))
}

// AppendPoint appends the encoding of p to dst and returns the extended
// slice.
func AppendPoint(dst []byte, p geom.Point) []byte {
	dst = binary.AppendUvarint(dst, p.ID)
	dst = binary.AppendUvarint(dst, uint64(len(p.Coords)))
	for _, v := range p.Coords {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodePoint decodes one point from the front of buf, returning the point
// and the number of bytes consumed. Its coordinates are a slice of their own.
func DecodePoint(buf []byte) (geom.Point, int, error) {
	p, _, n, err := DecodePointAppend(nil, buf)
	return p, n, err
}

// DecodePointAppend is DecodePoint with the coordinates appended to slab
// instead of a slice of their own: the point's Coords is the appended run,
// capacity-capped so later appends to the slab never write into it, and the
// grown slab comes back for the next record. A body of many points decodes
// in a few slab growths rather than one allocation per point; a nil slab
// costs one allocation, as DecodePoint. Nothing aliases buf.
func DecodePointAppend(slab []float64, buf []byte) (geom.Point, []float64, int, error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return geom.Point{}, slab, 0, ErrTruncated
	}
	off := n
	dim, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return geom.Point{}, slab, 0, ErrTruncated
	}
	off += n
	if dim > 1<<16 {
		return geom.Point{}, slab, 0, corrupt("codec: implausible dimension %d", dim)
	}
	if len(buf[off:]) < int(dim)*8 {
		return geom.Point{}, slab, 0, ErrTruncated
	}
	slab = slices.Grow(slab, int(dim))
	start := len(slab)
	for i := 0; i < int(dim); i++ {
		slab = append(slab, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		off += 8
	}
	coords := slab[start:len(slab):len(slab)]
	if coords == nil {
		coords = []float64{} // a zero-dimension point still has non-nil Coords
	}
	return geom.Point{ID: id, Coords: coords}, slab, off, nil
}

// AppendTaggedPoint appends a (tag, point) record to dst.
func AppendTaggedPoint(dst []byte, tag byte, p geom.Point) []byte {
	dst = append(dst, tag)
	return AppendPoint(dst, p)
}

// DecodeTaggedPoint decodes a (tag, point) record from the front of buf.
func DecodeTaggedPoint(buf []byte) (tag byte, p geom.Point, n int, err error) {
	if len(buf) < 1 {
		return 0, geom.Point{}, 0, ErrTruncated
	}
	tag = buf[0]
	p, m, err := DecodePoint(buf[1:])
	if err != nil {
		return 0, geom.Point{}, 0, err
	}
	return tag, p, 1 + m, nil
}

// EncodePoints encodes a slice of points with a leading count. This is the
// DFS block payload format. The block is sized before it is written, so it
// is one allocation of exactly its length.
func EncodePoints(points []geom.Point) []byte {
	size := uvarintLen(uint64(len(points)))
	for _, p := range points {
		size += uvarintLen(p.ID) + uvarintLen(uint64(len(p.Coords))) + 8*len(p.Coords)
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(points)))
	for _, p := range points {
		buf = AppendPoint(buf, p)
	}
	return buf
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// DecodePoints decodes a block produced by EncodePoints. Every point's
// Coords is carved, capacity-clipped, from one coordinate slab sized from
// the first record's dimensionality, so n points of one dimensionality
// cost two allocations, not n + 1. As in DecodePointsInto, the slab is
// presized only for a count the rest of the block can hold; a block of
// mixed dimensionality grows it as DecodePointAppend does.
func DecodePoints(buf []byte) ([]geom.Point, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, ErrTruncated
	}
	off := n
	// A well-formed record is at least 2 bytes (one-byte ID + zero
	// dimensions), so a count beyond len(buf)/2 cannot be satisfied —
	// reject it up front instead of pre-allocating for a forged header.
	rest := uint64(len(buf[off:]))
	if count > rest/2 {
		return nil, corrupt("codec: count %d exceeds buffer capacity", count)
	}
	var slab []float64
	if dim, ok := firstDim(buf[off:]); ok && dim <= 1<<16 && count*dim*8 <= rest {
		slab = make([]float64, 0, count*dim)
	}
	points := make([]geom.Point, 0, count)
	for i := uint64(0); i < count; i++ {
		p, grown, m, err := DecodePointAppend(slab, buf[off:])
		if err != nil {
			return nil, fmt.Errorf("codec: point %d/%d: %w", i, count, err)
		}
		slab = grown
		off += m
		points = append(points, p)
	}
	return points, nil
}

// DecodePointInto decodes one point from the front of buf directly into
// the columnar set — the allocation-free counterpart of DecodePoint for
// the map/reduce hot paths (no per-point Coords slice is materialized).
// An empty set with Dim 0 adopts the first record's dimensionality;
// afterwards a mismatching record is an error.
func DecodePointInto(buf []byte, set *geom.PointSet) (int, error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, ErrTruncated
	}
	off := n
	dim, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	off += n
	if dim > 1<<16 {
		return 0, corrupt("codec: implausible dimension %d", dim)
	}
	if set.Dim == 0 && set.Len() == 0 {
		set.Dim = int(dim)
	}
	if int(dim) != set.Dim {
		return 0, corrupt("codec: dimension mismatch %d vs %d", dim, set.Dim)
	}
	need := int(dim) * 8
	if len(buf[off:]) < need {
		return 0, ErrTruncated
	}
	set.IDs = append(set.IDs, id)
	for i := 0; i < int(dim); i++ {
		set.Coords = append(set.Coords, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		off += 8
	}
	return off, nil
}

// TaggedPointDim is the dimensionality of the (tag, point) record at the
// front of buf, read without decoding it; 0 when the record is malformed.
func TaggedPointDim(buf []byte) int {
	if len(buf) < 1 {
		return 0
	}
	dim, ok := firstDim(buf[1:])
	if !ok || dim > 1<<16 {
		return 0
	}
	return int(dim)
}

// DecodeTaggedPointInto decodes a (tag, point) record from the front of
// buf into the set, returning the tag and the bytes consumed.
func DecodeTaggedPointInto(buf []byte, set *geom.PointSet) (tag byte, n int, err error) {
	if len(buf) < 1 {
		return 0, 0, ErrTruncated
	}
	tag = buf[0]
	m, err := DecodePointInto(buf[1:], set)
	if err != nil {
		return 0, 0, err
	}
	return tag, 1 + m, nil
}

// DecodePointsInto decodes an EncodePoints block into the set, appending
// every point. The set keeps its capacity across calls, so a pooled set
// amortizes all decode allocations; a set short of room grows once per
// column, by the block's count of IDs and by that many rows of the first
// record's dimensionality. A column is grown only for a count the rest of
// the block can hold (DecodePoints' rule: at least 2 bytes a record, and
// 8 more per coordinate), so a forged header cannot buy an allocation.
func DecodePointsInto(buf []byte, set *geom.PointSet) error {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return ErrTruncated
	}
	off := n
	if rest := uint64(len(buf[off:])); count <= rest/2 {
		set.IDs = slices.Grow(set.IDs, int(count))
		if dim, ok := firstDim(buf[off:]); ok && dim <= 1<<16 && count*dim*8 <= rest {
			set.Coords = slices.Grow(set.Coords, int(count*dim))
		}
	}
	for i := uint64(0); i < count; i++ {
		m, err := DecodePointInto(buf[off:], set)
		if err != nil {
			return fmt.Errorf("codec: point %d/%d: %w", i, count, err)
		}
		off += m
	}
	return nil
}

// firstDim reads the dimensionality of the point record at the front of
// buf without decoding it.
func firstDim(buf []byte) (uint64, bool) {
	_, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, false
	}
	dim, m := binary.Uvarint(buf[n:])
	return dim, m > 0
}

package stream

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"dod/internal/codec"
	"dod/internal/geom"
)

// Wire forms of the shard window's own types — the one codec for everything
// that crosses a shard boundary: a ShardOp (the router's wave-2 op frames and
// the replication log's window ops), a cell list (support probes and
// OpSupport), and an ExportedEntry (drain/handoff, snapshots, imports).
// Callers frame and seal these payloads (internal/codec); decoders reject
// malformed input with an errs.ErrWireFormat-family error and never allocate
// more than the input's length allows.

// Arena is the backing store of one decoded body: the coordinates of its
// points, the coordinates of its cells and the cell headers are carved out
// of three slabs that grow by appending, instead of a slice or two per
// record. What an Arena hands out never aliases the input and is never
// written again, so it stays valid for as long as anything refers to it. A
// body of n records decodes in O(log n) allocations, and never allocates
// more than a constant times its length. The zero value is ready; use one
// Arena per body, from one goroutine.
type Arena struct {
	coords []float64
	ints   []int64
	cells  [][]int64
}

// AppendShardOp appends op: a kind byte, then for OpAdmit a codec point
// record, uvarint sequence number and uvarint settled foreign neighbor
// count; for OpEvict a uvarint ID; for OpSupport a codec point record, a
// varint delta and a cell list.
func AppendShardOp(dst []byte, op *ShardOp) []byte {
	dst = append(dst, byte(op.Kind))
	switch op.Kind {
	case OpAdmit:
		dst = codec.AppendPoint(dst, op.Point)
		dst = binary.AppendUvarint(dst, op.Seq)
		dst = binary.AppendUvarint(dst, uint64(op.Foreign))
	case OpEvict:
		dst = binary.AppendUvarint(dst, op.ID)
	case OpSupport:
		dst = codec.AppendPoint(dst, op.Point)
		dst = binary.AppendVarint(dst, int64(op.Delta))
		dst = AppendCells(dst, op.Point.Dim(), op.Cells)
	}
	return dst
}

// DecodeShardOp parses an AppendShardOp payload into op, its point and
// cells on the arena. Nothing in op aliases raw.
func (a *Arena) DecodeShardOp(raw []byte, op *ShardOp) error {
	if len(raw) == 0 {
		return codec.WireErrorf("stream: empty op")
	}
	*op = ShardOp{Kind: ShardOpKind(raw[0])}
	r := wireReader{buf: raw[1:], a: a}
	switch op.Kind {
	case OpAdmit:
		op.Point = r.point()
		op.Seq = r.uvarint("admit seq")
		op.Foreign = r.count("admit foreign count")
	case OpEvict:
		op.ID = r.uvarint("evict id")
	case OpSupport:
		op.Point = r.point()
		delta := r.varint("support delta")
		if delta != 1 && delta != -1 {
			r.fail("stream: support delta %d is not +1 or -1", delta)
		}
		op.Delta = int(delta)
		op.Cells = r.cells(op.Point.Dim())
	default:
		return codec.WireErrorf("stream: unknown op kind %d", raw[0])
	}
	return r.err
}

// AppendCells appends a cell list: uvarint dim, uvarint count, then
// count×dim varint cell coordinates.
func AppendCells(dst []byte, dim int, cells [][]int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(dim))
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, c := range cells {
		for _, v := range c {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

// DecodeCells parses an AppendCells payload whose cells must have dimension
// dim, the dimension of the point they surround (the index walks a cell
// against the point's own, coordinate by coordinate), onto the arena.
func (a *Arena) DecodeCells(payload []byte, dim int) ([][]int64, error) {
	r := wireReader{buf: payload, a: a}
	cells := r.cells(dim)
	return cells, r.err
}

// DecodePoint parses one codec point record from the front of buf, its
// coordinates on the arena, and returns it with the bytes consumed.
func (a *Arena) DecodePoint(buf []byte) (geom.Point, int, error) {
	r := wireReader{buf: buf, a: a}
	p := r.point()
	return p, r.off, r.err
}

// AppendEntry appends one window entry: a codec point record, uvarint
// sequence number, varint arrival (Unix nanoseconds), uvarint neighbor
// count and a verdict byte.
func AppendEntry(dst []byte, e ExportedEntry) []byte {
	dst = codec.AppendPoint(dst, e.Point)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendVarint(dst, e.Arrived.UnixNano())
	dst = binary.AppendUvarint(dst, uint64(e.Count))
	if e.Outlier {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeEntry parses one AppendEntry record from the front of buf and
// returns it with the number of bytes consumed. Its point's coordinates are
// a slice of their own: an entry outlives the body it came in.
func DecodeEntry(buf []byte) (ExportedEntry, int, error) {
	r := wireReader{buf: buf, a: new(Arena)}
	e := ExportedEntry{
		Point:   r.point(),
		Seq:     r.uvarint("entry seq"),
		Arrived: time.Unix(0, r.varint("entry arrival")),
		Count:   r.count("entry neighbor count"),
	}
	if r.err == nil && r.off >= len(buf) {
		r.fail("stream: truncated entry verdict")
	}
	if r.err != nil {
		return ExportedEntry{}, 0, r.err
	}
	e.Outlier = buf[r.off] == 1
	return e, r.off + 1, nil
}

// wireReader is a decode cursor with a sticky error: after the first
// malformed field every read is a no-op returning zero, so a decoder reads
// its fields in layout order and checks err once. Points and cells land on
// the arena.
type wireReader struct {
	buf []byte
	off int
	err error
	a   *Arena
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = codec.WireErrorf(format, args...)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("stream: truncated %s", what)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("stream: truncated %s", what)
		return 0
	}
	r.off += n
	return v
}

// count reads a neighbor count. A forged value above MaxInt32 would turn
// negative (or wrap a sum) as an int and flip a verdict.
func (r *wireReader) count(what string) int {
	v := r.uvarint(what)
	if v > math.MaxInt32 {
		r.fail("stream: %s %d out of range", what, v)
		return 0
	}
	return int(v)
}

func (r *wireReader) point() geom.Point {
	if r.err != nil {
		return geom.Point{}
	}
	p, slab, n, err := codec.DecodePointAppend(r.a.coords, r.buf[r.off:])
	r.a.coords = slab
	if err != nil {
		r.err = err
		return geom.Point{}
	}
	r.off += n
	return p
}

func (r *wireReader) cells(want int) [][]int64 {
	dim := r.uvarint("cell list dimension")
	count := r.uvarint("cell list count")
	if r.err != nil {
		return nil
	}
	if dim == 0 || dim > 1<<16 || dim != uint64(want) {
		r.fail("stream: bad cell list dimension %d for a %d-d point", dim, want)
		return nil
	}
	// Every coordinate is at least one byte, which bounds both slab growths
	// below by the input's length.
	if count > uint64(len(r.buf)-r.off)/dim {
		r.fail("stream: cell count %d exceeds buffer", count)
		return nil
	}
	if count == 0 {
		return [][]int64{}
	}
	a := r.a
	lo := len(a.ints)
	a.ints = slices.Grow(a.ints, int(count*dim))
	for i := uint64(0); i < count*dim; i++ {
		a.ints = append(a.ints, r.varint("cell coordinate"))
	}
	if r.err != nil {
		a.ints = a.ints[:lo]
		return nil
	}
	flat := a.ints[lo:]
	hlo := len(a.cells)
	a.cells = slices.Grow(a.cells, int(count))
	for i := uint64(0); i < count; i++ {
		a.cells = append(a.cells, flat[i*dim:(i+1)*dim:(i+1)*dim])
	}
	return a.cells[hlo:len(a.cells):len(a.cells)]
}

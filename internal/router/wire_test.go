package router

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"dod/internal/geom"
	"dod/internal/stream"
)

// refBody lays a sealed body out by hand — kind byte, uvarint length,
// payload per frame, then the integrity frame (CRC-32 in the high word,
// CRC-32C in the low, little endian) — so the golden test below pins the
// bytes on the wire, not whichever codec produced them.
type refBody struct{ buf []byte }

func (b *refBody) frame(kind byte, payload []byte) {
	b.buf = append(b.buf, kind)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(payload)))
	b.buf = append(b.buf, payload...)
}

func (b *refBody) sealed() []byte {
	sum := uint64(crc32.ChecksumIEEE(b.buf))<<32 | uint64(crc32.Checksum(b.buf, crc32.MakeTable(crc32.Castagnoli)))
	b.frame(0x7f, binary.LittleEndian.AppendUint64(nil, sum))
	return b.buf
}

func refPoint(dst []byte, p geom.Point) []byte {
	dst = binary.AppendUvarint(dst, p.ID)
	dst = binary.AppendUvarint(dst, uint64(len(p.Coords)))
	for _, c := range p.Coords {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

func refCells(dst []byte, dim int, cells [][]int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(dim))
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, c := range cells {
		for _, v := range c {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

// TestWireBodiesGolden pins the wave-1 (support) and wave-2 (ingest_batch)
// bodies byte for byte: frame kinds 1 (JSON header), 2 (point), 3 (cells),
// 5 (op), field order and integer encodings. Moving the op, cell-list and
// entry codecs into internal/stream must not move a byte on this hop.
func TestWireBodiesGolden(t *testing.T) {
	p := geom.Point{ID: 42, Coords: []float64{1.5, -2.25}}
	q := geom.Point{ID: 43, Coords: []float64{-0.5, math.Inf(1)}}
	cells := [][]int64{{-3, 4}, {0, 0}, {math.MaxInt64, math.MinInt64}}

	ops := []stream.ShardOp{
		{Kind: stream.OpEvict, ID: 300},
		{Kind: stream.OpAdmit, Point: p, Seq: 7, Foreign: 2},
		{Kind: stream.OpSupport, Point: q, Cells: cells, Delta: -1},
		{Kind: stream.OpSupport, Point: p, Cells: nil, Delta: +1},
	}
	var want refBody
	want.frame(1, []byte(`{"arrivedNs":123456,"count":4}`))
	want.frame(5, binary.AppendUvarint([]byte{2}, 300))
	want.frame(5, binary.AppendUvarint(binary.AppendUvarint(refPoint([]byte{1}, p), 7), 2))
	want.frame(5, refCells(binary.AppendVarint(refPoint([]byte{3}, q), -1), 2, cells))
	want.frame(5, refCells(binary.AppendVarint(refPoint([]byte{3}, p), +1), 2, nil))
	got := EncodeIngestBatch(IngestBatchHeader{ArrivedNs: 123456, Count: len(ops)}, ops)
	if !bytes.Equal(got, want.sealed()) {
		t.Fatalf("ingest_batch body moved:\ngot  %x\nwant %x", got, want.buf)
	}

	probes := []SupportProbe{{Point: p, Cells: cells}, {Point: q, Cells: cells[:1]}}
	want = refBody{}
	want.frame(1, []byte(`{"limit":5,"victims":[9,11]}`))
	want.frame(2, refPoint(nil, p))
	want.frame(3, refCells(nil, 2, cells))
	want.frame(2, refPoint(nil, q))
	want.frame(3, refCells(nil, 2, cells[:1]))
	got = EncodeSupportBatch(SupportHeader{Limit: 5, Victims: []uint64{9, 11}}, probes)
	if !bytes.Equal(got, want.sealed()) {
		t.Fatalf("support body moved:\ngot  %x\nwant %x", got, want.buf)
	}
}

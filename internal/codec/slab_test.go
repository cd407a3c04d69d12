package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"dod/internal/geom"
)

// TestCloseFrameMatchesAppendFrame holds the in-place frame to AppendFrame's
// bytes, for payloads on both sides of the length's one- and two-byte
// uvarint sizes, behind a prefix and from an empty buffer.
func TestCloseFrameMatchesAppendFrame(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 20000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		for _, prefix := range []string{"", "head"} {
			want := AppendFrame([]byte(prefix), 9, payload)
			got := CloseFrame(append([]byte(prefix), payload...), len(prefix), 9)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-byte payload after %q: CloseFrame and AppendFrame differ", n, prefix)
			}
		}
	}
}

// TestDecodePointAppend holds the slab decoder to DecodePoint: the same
// point and length, coordinates on the slab and capped so that a later
// append cannot reach them, a zero-dimension point with non-nil Coords as
// DecodePoint gives it, and an error on every truncation.
func TestDecodePointAppend(t *testing.T) {
	pts := []geom.Point{
		{ID: 1, Coords: []float64{1.5, -2}},
		{ID: 1 << 40, Coords: []float64{math.NaN(), 0, math.Inf(-1)}},
		{ID: 7, Coords: []float64{}},
	}
	var buf []byte
	for _, p := range pts {
		buf = AppendPoint(buf, p)
	}
	var slab []float64
	var got []geom.Point
	for off := 0; off < len(buf); {
		p, grown, n, err := DecodePointAppend(slab, buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		want, m, err := DecodePoint(buf[off:])
		if err != nil || n != m || !bytes.Equal(AppendPoint(nil, p), AppendPoint(nil, want)) {
			t.Fatalf("record at %d: slab decode took %d bytes, DecodePoint %d (%v)", off, n, m, err)
		}
		slab, off = grown, off+n
		got = append(got, p)
	}
	_ = append(slab, 99) // lands past every decoded point
	for i, p := range got {
		if !bytes.Equal(AppendPoint(nil, p), AppendPoint(nil, pts[i])) {
			t.Fatalf("point %d changed after a later append to the slab", i)
		}
	}
	if got[2].Coords == nil {
		t.Fatal("a zero-dimension point decoded with nil Coords; DecodePoint gives an empty slice")
	}
	first := len(AppendPoint(nil, pts[0]))
	for cut := 0; cut < first; cut++ {
		if _, _, _, err := DecodePointAppend(nil, buf[:cut]); err == nil {
			t.Fatalf("a record cut to %d of its %d bytes decoded", cut, first)
		}
	}
}

// TestDecodePointAllocs pins DecodePoint, the slab decoder on a nil slab, at
// one allocation per point: its coordinates.
func TestDecodePointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	buf := AppendPoint(nil, geom.Point{ID: 9, Coords: []float64{1, 2, 3}})
	if got := testing.AllocsPerRun(100, func() { _, _, _ = DecodePoint(buf) }); got != 1 {
		t.Fatalf("DecodePoint allocates %v objects per point, want 1", got)
	}
}

// blockPoints returns n points of dimension dim with IDs across every
// uvarint length up to five bytes.
func blockPoints(n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for j := range c {
			c[j] = float64(i*dim + j)
		}
		pts[i] = geom.Point{ID: uint64(i) << (i % 29), Coords: c}
	}
	return pts
}

// TestEncodePointsExactSize: a block is one allocation whose capacity is
// its length, and it holds the count and the records AppendPoint writes.
func TestEncodePointsExactSize(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 1000} {
		pts := blockPoints(n, 3)
		want := binary.AppendUvarint(nil, uint64(n))
		for _, p := range pts {
			want = AppendPoint(want, p)
		}
		got := EncodePoints(pts)
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("%d points: block of %d bytes (cap %d), want the %d bytes AppendPoint writes", n, len(got), cap(got), len(want))
		}
	}
	if raceEnabled {
		return
	}
	pts := blockPoints(1000, 2)
	if got := testing.AllocsPerRun(20, func() { _ = EncodePoints(pts) }); got != 1 {
		t.Errorf("EncodePoints made %v allocations, want 1", got)
	}
}

// TestDecodePointsIntoAllocs: decoding a block into an empty set grows each
// column once, and a set already large enough is not grown at all.
func TestDecodePointsIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	block := EncodePoints(blockPoints(1000, 3))
	if got := testing.AllocsPerRun(20, func() {
		var set geom.PointSet
		if err := DecodePointsInto(block, &set); err != nil || set.Len() != 1000 {
			t.Fatalf("decoded %d points: %v", set.Len(), err)
		}
	}); got > 2 {
		t.Errorf("DecodePointsInto into an empty set made %v allocations, want at most 2", got)
	}
	var pooled geom.PointSet
	if err := DecodePointsInto(block, &pooled); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		pooled.Clear()
		_ = DecodePointsInto(block, &pooled)
	}); got != 0 {
		t.Errorf("DecodePointsInto into a set with room made %v allocations, want 0", got)
	}
}

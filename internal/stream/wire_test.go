package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
)

// Round-trip values, shared with FuzzShardWire's seed corpus: every op kind,
// empty and extreme cell lists, ±Inf and −0 coordinates, negative arrival
// instants, a victim (outlier with no neighbors).
var (
	wirePoint = geom.Point{ID: 42, Coords: []float64{1.5, -2.25}}
	wireEdge  = geom.Point{ID: math.MaxUint64, Coords: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}}
	wireCells = [][]int64{{-3, 4}, {0, 0}, {math.MaxInt64, math.MinInt64}}
)

func wireOps() []ShardOp {
	return []ShardOp{
		{Kind: OpEvict, ID: 9},
		{Kind: OpEvict, ID: math.MaxUint64},
		{Kind: OpAdmit, Point: wirePoint, Seq: 7, Foreign: 2},
		{Kind: OpAdmit, Point: wireEdge, Seq: math.MaxUint64, Foreign: math.MaxInt32},
		{Kind: OpSupport, Point: wirePoint, Cells: wireCells, Delta: -1},
		{Kind: OpSupport, Point: wirePoint, Cells: [][]int64{}, Delta: +1},
		{Kind: OpSupport, Point: wireEdge, Cells: [][]int64{{1, 2, 3}}, Delta: +1},
	}
}

func wireEntries() []ExportedEntry {
	return []ExportedEntry{
		{Point: wirePoint, Seq: 3, Arrived: time.Unix(0, -12), Count: 9, Outlier: false},
		{Point: wireEdge, Seq: math.MaxUint64, Arrived: time.Unix(0, math.MaxInt64), Count: math.MaxInt32, Outlier: false},
		{Point: geom.Point{ID: 1, Coords: []float64{0, 0}}, Seq: 4, Arrived: time.Unix(0, 0), Count: 0, Outlier: true},
	}
}

// sameBits compares two encodable values bit for bit (−0 ≠ +0, which
// reflect.DeepEqual cannot see) by comparing their encodings.
func sameBits(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: re-encoding differs:\n%x\n%x", what, a, b)
	}
}

func TestShardWireRoundTrip(t *testing.T) {
	for i, op := range wireOps() {
		enc := AppendShardOp(nil, &op)
		var got ShardOp
		if err := new(Arena).DecodeShardOp(enc, &got); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("op %d round trip:\ngot  %+v\nwant %+v", i, got, op)
		}
		sameBits(t, "op", AppendShardOp(nil, &got), enc)
	}
	for i, e := range wireEntries() {
		// Entries concatenate (a KindImport op body): trailing bytes are the
		// next record's, and n says where it starts.
		enc := AppendEntry(nil, e)
		got, n, err := DecodeEntry(append(enc[:len(enc):len(enc)], 0xAA))
		if err != nil || n != len(enc) {
			t.Fatalf("entry %d: n=%d of %d, err=%v", i, n, len(enc), err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("entry %d round trip:\ngot  %+v\nwant %+v", i, got, e)
		}
		sameBits(t, "entry", AppendEntry(nil, got), enc)
	}
	for _, cells := range [][][]int64{wireCells, {}, {{7}}} {
		dim := 2
		if len(cells) > 0 {
			dim = len(cells[0])
		}
		got, err := new(Arena).DecodeCells(AppendCells(nil, dim, cells), dim)
		if err != nil || !reflect.DeepEqual(got, cells) {
			t.Fatalf("cells round trip: got %v err %v, want %v", got, err, cells)
		}
	}
	// Decoded cells share a backing array but not capacity: appending to one
	// must not overwrite its neighbor.
	got, _ := new(Arena).DecodeCells(AppendCells(nil, 2, wireCells), 2)
	_ = append(got[0], 99)
	if !reflect.DeepEqual(got, wireCells) {
		t.Fatalf("append to a decoded cell clobbered the next: %v", got)
	}
}

// TestShardWireRejectsMalformed is the one validation rule of the shard
// tier: whatever either hop used to reject, both reject now.
func TestShardWireRejectsMalformed(t *testing.T) {
	pt := AppendShardOp(nil, &ShardOp{Kind: OpAdmit, Point: wirePoint})[1:] // kind byte off: point, seq 0, foreign 0
	pt = pt[:len(pt)-2]
	support := func(delta int64, cells []byte) []byte {
		return append(binary.AppendVarint(append([]byte{byte(OpSupport)}, pt...), delta), cells...)
	}
	okCells := AppendCells(nil, 2, wireCells[:1])
	ops := map[string][]byte{
		"empty":              nil,
		"unknown kind 0":     {0},
		"unknown kind 4":     {4, 1},
		"support delta 0":    support(0, okCells),
		"support delta 2":    support(2, okCells),
		"support delta -2":   support(-2, okCells),
		"support delta huge": support(math.MinInt64, okCells),
		"admit foreign 2^31": binary.AppendUvarint(binary.AppendUvarint(append([]byte{byte(OpAdmit)}, pt...), 7), math.MaxInt32+1),
		"admit foreign 2^64": binary.AppendUvarint(binary.AppendUvarint(append([]byte{byte(OpAdmit)}, pt...), 7), math.MaxUint64),
		"cells dim 0":        support(1, []byte{0, 0}),
		"cells dim 2^16+1":   support(1, binary.AppendUvarint(binary.AppendUvarint(nil, 1<<16+1), 0)),
		"cells count len+1":  support(1, []byte{1, 2, 0}),
		"cells count huge":   support(1, binary.AppendUvarint([]byte{1}, math.MaxUint64)),
		"cells count×dim":    support(1, append([]byte{2, 2}, make([]byte, 3)...)),
		"cells dim 1 of 2":   support(1, []byte{1, 1, 0}),
		"cells dim 3 of 2":   support(1, []byte{3, 1, 0, 0, 0}),
	}
	for name, raw := range ops {
		var op ShardOp
		if err := new(Arena).DecodeShardOp(raw, &op); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("op %s: err = %v, want a wire-format error", name, err)
		}
	}
	entry := AppendEntry(nil, wireEntries()[0])
	forged := binary.AppendUvarint(append([]byte(nil), entry[:len(entry)-2]...), math.MaxInt32+1)
	if _, _, err := DecodeEntry(append(forged, 0)); !errors.Is(err, errs.ErrWireFormat) {
		t.Errorf("entry count 2^31: err = %v, want a wire-format error", err)
	}

	// Every strict prefix of a valid record is a typed failure.
	for i, op := range wireOps() {
		enc := AppendShardOp(nil, &op)
		for cut := range enc {
			var got ShardOp
			if err := new(Arena).DecodeShardOp(enc[:cut], &got); !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("op %d cut at %d/%d: err = %v", i, cut, len(enc), err)
			}
		}
	}
	for i, e := range wireEntries() {
		enc := AppendEntry(nil, e)
		for cut := range enc {
			if _, _, err := DecodeEntry(enc[:cut]); !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("entry %d cut at %d/%d: err = %v", i, cut, len(enc), err)
			}
		}
	}
	enc := AppendCells(nil, 2, wireCells)
	for cut := range enc {
		if _, err := new(Arena).DecodeCells(enc[:cut], 2); !errors.Is(err, errs.ErrWireFormat) {
			t.Fatalf("cells cut at %d/%d: err = %v", cut, len(enc), err)
		}
	}
}

// wireGen builds structured values out of fuzz bytes: NaN
// coordinates are the one thing excluded (NaN != NaN, so DeepEqual could not
// check them); ±Inf, −0 and denormals stay.
type wireGen struct{ data []byte }

func (g *wireGen) u64() uint64 {
	var b [8]byte
	g.data = g.data[copy(b[:], g.data):]
	return binary.LittleEndian.Uint64(b[:])
}

func (g *wireGen) point() geom.Point {
	p := geom.Point{ID: g.u64(), Coords: make([]float64, 1+g.u64()%4)}
	for i := range p.Coords {
		if p.Coords[i] = math.Float64frombits(g.u64()); math.IsNaN(p.Coords[i]) {
			p.Coords[i] = math.Copysign(0, -1)
		}
	}
	return p
}

func (g *wireGen) op() ShardOp {
	switch g.u64() % 3 {
	case 0:
		return ShardOp{Kind: OpEvict, ID: g.u64()}
	case 1:
		return ShardOp{Kind: OpAdmit, Point: g.point(), Seq: g.u64(), Foreign: int(g.u64() % (math.MaxInt32 + 1))}
	}
	op := ShardOp{Kind: OpSupport, Point: g.point(), Delta: 1 - 2*int(g.u64()%2)}
	op.Cells = make([][]int64, g.u64()%5)
	for i := range op.Cells {
		op.Cells[i] = make([]int64, op.Point.Dim())
		for d := range op.Cells[i] {
			op.Cells[i][d] = int64(g.u64())
		}
	}
	return op
}

func (g *wireGen) entry() ExportedEntry {
	return ExportedEntry{
		Point: g.point(), Seq: g.u64(), Arrived: time.Unix(0, int64(g.u64())),
		Count: int(g.u64() % (math.MaxInt32 + 1)), Outlier: g.u64()%2 == 1,
	}
}

// FuzzShardWire hammers the shard tier's one codec. Arbitrary bytes through
// the three decoders never panic, fail only with errs.ErrWireFormat-family
// errors, and never allocate more than a constant times the input's length
// (a forged dimension or count is refused before it is believed). Values
// generated from the same bytes survive encode → decode bit for bit.
func FuzzShardWire(f *testing.F) {
	for _, op := range wireOps() {
		f.Add(AppendShardOp(nil, &op))
	}
	for _, e := range wireEntries() {
		f.Add(AppendEntry(nil, e))
	}
	f.Add(AppendCells(nil, 2, wireCells))
	f.Add([]byte{})
	f.Add([]byte{byte(OpSupport), 1, 0, 1, 0xff, 0xff, 3, 0xff, 0xff, 0xff, 0x0f}) // forged dim and count

	f.Fuzz(func(t *testing.T, data []byte) {
		cellDim := 0 // a small list's own dimension, so well-formed lists get in
		if len(data) > 0 {
			cellDim = int(data[0])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var op ShardOp
		opErr := new(Arena).DecodeShardOp(data, &op)
		cells, cellsErr := new(Arena).DecodeCells(data, cellDim)
		entry, n, entryErr := DecodeEntry(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (> %d)", len(data), got, limit)
		}
		for _, err := range []error{opErr, cellsErr, entryErr} {
			if err != nil && !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
		}
		// Whatever a decoder accepts re-encodes to something that decodes to
		// the same bits (NaN payloads included).
		if opErr == nil {
			enc := AppendShardOp(nil, &op)
			var again ShardOp
			if err := new(Arena).DecodeShardOp(enc, &again); err != nil {
				t.Fatalf("re-decode of accepted op: %v", err)
			}
			sameBits(t, "accepted op", AppendShardOp(nil, &again), enc)
		}
		if cellsErr == nil {
			again, err := new(Arena).DecodeCells(AppendCells(nil, cellDim, cells), cellDim)
			if err != nil || !reflect.DeepEqual(again, cells) {
				t.Fatalf("re-decode of accepted cells: %v, %v != %v", err, again, cells)
			}
		}
		if entryErr == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("entry consumed %d of %d bytes", n, len(data))
			}
			enc := AppendEntry(nil, entry)
			again, m, err := DecodeEntry(enc)
			if err != nil || m != len(enc) {
				t.Fatalf("re-decode of accepted entry: n=%d of %d, %v", m, len(enc), err)
			}
			sameBits(t, "accepted entry", AppendEntry(nil, again), enc)
		}

		g := wireGen{data: data}
		want := g.op()
		enc := AppendShardOp(nil, &want)
		var got ShardOp
		if err := new(Arena).DecodeShardOp(enc, &got); err != nil {
			t.Fatalf("generated op %+v: %v", want, err)
		}
		if len(want.Cells) == 0 {
			want.Cells, got.Cells = nil, nil // nil and empty are the same list
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("generated op round trip:\ngot  %+v\nwant %+v", got, want)
		}
		sameBits(t, "generated op", AppendShardOp(nil, &got), enc)

		wantE := g.entry()
		enc = AppendEntry(nil, wantE)
		gotE, m, err := DecodeEntry(enc)
		if err != nil || m != len(enc) || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("generated entry round trip: n=%d of %d, %v\ngot  %+v\nwant %+v", m, len(enc), err, gotE, wantE)
		}
		sameBits(t, "generated entry", AppendEntry(nil, gotE), enc)
	})
}

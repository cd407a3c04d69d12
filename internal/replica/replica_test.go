package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/stream"
)

// sampleOps covers every op kind, including empty and multi-element
// collection fields and negative varint-encoded values.
func sampleOps() []*Op {
	return []*Op{
		{Kind: KindWindow, Seq: 1, ArrivedNs: -1234567890, ShardOp: stream.ShardOp{
			Kind:  stream.OpAdmit,
			Point: geom.Point{ID: 7, Coords: []float64{1.5, -2.25}},
			Seq:   42, Foreign: 3}},
		{Kind: KindWindow, Seq: 2, ArrivedNs: 5, ShardOp: stream.ShardOp{Kind: stream.OpEvict, ID: 99}},
		{Kind: KindWindow, Seq: 3, ShardOp: stream.ShardOp{
			Kind: stream.OpSupport, Delta: -1,
			Point: geom.Point{ID: 8, Coords: []float64{0, 0.5}},
			Cells: [][]int64{{-1, 2}, {3, -4}, {0, 0}}}},
		{Kind: KindWindow, Seq: 4, ShardOp: stream.ShardOp{
			Kind: stream.OpSupport, Delta: 1,
			Point: geom.Point{ID: 9, Coords: []float64{9, 9}},
			Cells: [][]int64{}}},
		{Kind: KindImport, Seq: 5, Entries: []stream.ExportedEntry{
			{Point: geom.Point{ID: 1, Coords: []float64{1, 1}}, Seq: 10,
				Arrived: time.Unix(0, 111), Count: 4, Outlier: false},
			{Point: geom.Point{ID: 2, Coords: []float64{2, 2}}, Seq: 11,
				Arrived: time.Unix(0, -5), Count: 0, Outlier: true},
		}},
		{Kind: KindTopology, Seq: 6, Raw: []byte(`{"epoch":3,"shards":[{"name":"s0"}]}`)},
		{Kind: KindDedupe, Seq: 7, ReqID: "req-12|sup|s1|1", Status: 200,
			Raw: []byte(`{"count":3}` + "\n")},
	}
}

// evictOp is the smallest window op: evict id, at log position seq.
func evictOp(seq, id uint64) *Op {
	return &Op{Kind: KindWindow, Seq: seq, ShardOp: stream.ShardOp{Kind: stream.OpEvict, ID: id}}
}

// normalizeOp maps nil and empty slices to a canonical form so DeepEqual
// compares semantics, not allocation accidents.
func normalizeOp(op *Op) *Op {
	c := *op
	if len(c.ShardOp.Cells) == 0 {
		c.ShardOp.Cells = nil
	}
	if len(c.Entries) == 0 {
		c.Entries = nil
	}
	if len(c.Raw) == 0 {
		c.Raw = nil
	}
	return &c
}

func TestOpCodecRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		buf := encodeOp(nil, op)
		got, err := DecodeOp(buf)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", op.Kind, err)
		}
		if !reflect.DeepEqual(normalizeOp(got), normalizeOp(op)) {
			t.Fatalf("kind %d: round trip mismatch\ngot:  %+v\nwant: %+v", op.Kind, got, op)
		}
	}
}

func TestDecodeOpRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":          nil,
		"unknown kind":   {0xEE, 0x01},
		"truncated seq":  {byte(KindWindow)},
		"truncated body": {byte(KindWindow), 0x01},
		"truncated op":   {byte(KindWindow), 0x01, 0x02, byte(stream.OpAdmit)},
		"no window op":   {byte(KindWindow), 0x01, 0x02},
		"unknown op":     {byte(KindWindow), 0x01, 0x02, 0xEE},
	}
	for name, buf := range cases {
		if _, err := DecodeOp(buf); err == nil {
			t.Errorf("%s: decode accepted malformed op", name)
		}
	}
	// A dedupe op whose claimed request-id length exceeds the buffer must
	// not panic or over-read.
	bad := []byte{byte(KindDedupe), 0x01, 200, 255, 1}
	if _, err := DecodeOp(bad); err == nil {
		t.Error("oversized dedupe id length accepted")
	}
}

func TestApplyWireRoundTrip(t *testing.T) {
	var encoded [][]byte
	for _, op := range sampleOps() {
		encoded = append(encoded, encodeOp(nil, op))
	}
	hdr := ApplyHeader{From: "s1", Count: len(encoded), Head: 42}
	body := EncodeApply(hdr, encoded)

	gotHdr, ops, err := DecodeApply(body)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header = %+v, want %+v", gotHdr, hdr)
	}
	if len(ops) != len(encoded) {
		t.Fatalf("decoded %d ops, want %d", len(ops), len(encoded))
	}
	for i, want := range sampleOps() {
		if !reflect.DeepEqual(normalizeOp(ops[i]), normalizeOp(want)) {
			t.Fatalf("op %d mismatch\ngot:  %+v\nwant: %+v", i, ops[i], want)
		}
	}

	// An empty shipment (pure head announcement) round-trips too.
	if _, ops, err := DecodeApply(EncodeApply(ApplyHeader{From: "s1", Head: 9}, nil)); err != nil || len(ops) != 0 {
		t.Fatalf("empty shipment: ops=%d err=%v", len(ops), err)
	}
}

func TestApplyWireRejectsCorruption(t *testing.T) {
	body := EncodeApply(ApplyHeader{From: "s1", Count: 1, Head: 1},
		[][]byte{encodeOp(nil, evictOp(1, 5))})
	for i := range body {
		mangled := append([]byte(nil), body...)
		mangled[i] ^= 0x40
		if _, _, err := DecodeApply(mangled); err == nil {
			t.Fatalf("byte %d flipped: corruption not detected", i)
		} else if !errors.Is(err, errs.ErrWireFormat) {
			t.Fatalf("byte %d flipped: error %v is not a wire error", i, err)
		}
	}
	// A count mismatch between header and frames is rejected even when the
	// checksum is intact (a buggy sender, not a corrupt wire).
	lying := EncodeApply(ApplyHeader{From: "s1", Count: 3, Head: 1},
		[][]byte{encodeOp(nil, evictOp(1, 5))})
	if _, _, err := DecodeApply(lying); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	snap := &Snapshot{
		From:     "s0",
		Seq:      17,
		Topology: []byte(`{"epoch":2,"dim":2,"r":1.2,"k":3,"shards":[{"name":"s0","url":"http://x"}]}`),
		Entries: []stream.ExportedEntry{
			{Point: geom.Point{ID: 3, Coords: []float64{1, 2}}, Seq: 5,
				Arrived: time.Unix(0, 777), Count: 2, Outlier: true},
			{Point: geom.Point{ID: 4, Coords: []float64{-1, -2}}, Seq: 6,
				Arrived: time.Unix(0, 778), Count: 9, Outlier: false},
		},
	}
	body := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != snap.From || got.Seq != snap.Seq {
		t.Fatalf("header: got (%s,%d), want (%s,%d)", got.From, got.Seq, snap.From, snap.Seq)
	}
	if !bytes.Equal(got.Topology, snap.Topology) {
		t.Fatalf("topology: got %s, want %s", got.Topology, snap.Topology)
	}
	if !reflect.DeepEqual(got.Entries, snap.Entries) {
		t.Fatalf("entries mismatch\ngot:  %+v\nwant: %+v", got.Entries, snap.Entries)
	}

	// Empty snapshot (fresh primary, no topology yet).
	got, err = DecodeSnapshot(EncodeSnapshot(&Snapshot{From: "s0", Seq: 0}))
	if err != nil || len(got.Entries) != 0 || len(got.Topology) != 0 {
		t.Fatalf("empty snapshot: %+v err=%v", got, err)
	}

	// Corruption is a typed decode failure, never silent divergence.
	mangled := append([]byte(nil), body...)
	mangled[len(mangled)/2] ^= 0x01
	if _, err := DecodeSnapshot(mangled); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}

	// The topology survives a JSON round trip of the header frame.
	var topoCheck map[string]any
	if err := json.Unmarshal(snap.Topology, &topoCheck); err != nil {
		t.Fatalf("sample topology is not valid JSON: %v", err)
	}
}

func TestLogAppendWindowAck(t *testing.T) {
	l := NewLog(nil)
	for i := 1; i <= 5; i++ {
		op := evictOp(0, uint64(i))
		if seq := l.Append(op); seq != uint64(i) || op.Seq != uint64(i) {
			t.Fatalf("append %d: assigned seq %d (op.Seq %d)", i, seq, op.Seq)
		}
	}
	if l.Head() != 5 || l.Acked() != 0 {
		t.Fatalf("head=%d acked=%d, want 5, 0", l.Head(), l.Acked())
	}

	// Full window from the beginning.
	ops, head, ok := l.Window(1, 0)
	if !ok || head != 5 || len(ops) != 5 {
		t.Fatalf("Window(1): ok=%v head=%d len=%d", ok, head, len(ops))
	}
	if got, err := DecodeOp(ops[2]); err != nil || got.Seq != 3 || got.ShardOp.ID != 3 {
		t.Fatalf("ops[2] = %+v err=%v, want seq 3 id 3", got, err)
	}

	// max bounds the slice.
	if ops, _, _ := l.Window(2, 2); len(ops) != 2 {
		t.Fatalf("Window(2, max 2): len=%d", len(ops))
	}

	// Past the head: empty but ok (caught up).
	if ops, _, ok := l.Window(6, 0); !ok || len(ops) != 0 {
		t.Fatalf("Window(6): ok=%v len=%d, want true, 0", ok, len(ops))
	}

	// Ack trims; a window below the floor reports !ok (snapshot needed).
	l.Ack(3)
	if l.Acked() != 3 {
		t.Fatalf("acked=%d, want 3", l.Acked())
	}
	if _, _, ok := l.Window(2, 0); ok {
		t.Fatal("Window(2) after Ack(3) should report trimmed")
	}
	if ops, _, ok := l.Window(4, 0); !ok || len(ops) != 2 {
		t.Fatalf("Window(4) after trim: ok=%v len=%d, want true, 2", ok, len(ops))
	}

	// Acks never regress and clamp to the head.
	l.Ack(1)
	if l.Acked() != 3 {
		t.Fatalf("regressed ack took effect: acked=%d", l.Acked())
	}
	l.Ack(100)
	if l.Acked() != 5 {
		t.Fatalf("over-head ack: acked=%d, want 5 (clamped)", l.Acked())
	}
	if ops, _, ok := l.Window(6, 0); !ok || len(ops) != 0 {
		t.Fatalf("fully trimmed log: ok=%v len=%d", ok, len(ops))
	}
}

func TestLogNotify(t *testing.T) {
	l := NewLog(nil)
	select {
	case <-l.Notify():
		t.Fatal("fresh log has a pending nudge")
	default:
	}
	l.Append(evictOp(0, 1))
	select {
	case <-l.Notify():
	default:
		t.Fatal("append did not nudge")
	}
	// The nudge channel never blocks appends.
	l.Append(evictOp(0, 2))
	l.Append(evictOp(0, 3))
	if l.Head() != 3 {
		t.Fatalf("head=%d, want 3", l.Head())
	}
}

package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"dod/internal/codec"
	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/replica"
	"dod/internal/router"
	"dod/internal/stream"
)

// TestWireValidationParity: the replication hop validates what the shard hop
// validates. Each forged or truncated payload rides a correctly sealed body
// into both hops' decoders — so the refusal is the op/entry/cell-list
// codec's, not the checksum's — and must come back as a typed
// errs.ErrWireFormat failure, never a panic, from both. (Before the codecs
// were one, the replica side applied any support delta and let a forged
// count go negative.)
func TestWireValidationParity(t *testing.T) {
	pt := geom.Point{ID: 7, Coords: []float64{1.5, -2.25}}
	cells := [][]int64{{-1, 2}, {3, -4}}
	point := codec.AppendPoint(nil, pt)
	support := func(delta int64) []byte {
		raw := binary.AppendVarint(append([]byte{byte(stream.OpSupport)}, point...), delta)
		return stream.AppendCells(raw, 2, cells)
	}
	admit := func(foreign uint64) []byte {
		raw := binary.AppendUvarint(append([]byte{byte(stream.OpAdmit)}, point...), 42)
		return binary.AppendUvarint(raw, foreign)
	}
	ops := map[string][]byte{
		"support delta 0":      support(0),
		"support delta 2":      support(2),
		"support delta -2":     support(-2),
		"admit foreign 2^31":   admit(math.MaxInt32 + 1),
		"admit foreign 2^64-1": admit(math.MaxUint64),
		"unknown op kind":      {0xEE, 1},
		"cells dim 0":          append(support(1)[:1+len(point)+1], 0, 0),
		"cells count len+1":    append(support(1)[:1+len(point)+1], 2, 2, 0),
	}
	for _, op := range []stream.ShardOp{
		{Kind: stream.OpAdmit, Point: pt, Seq: 42, Foreign: 3},
		{Kind: stream.OpEvict, ID: 300},
		{Kind: stream.OpSupport, Point: pt, Cells: cells, Delta: -1},
	} {
		valid := stream.AppendShardOp(nil, &op)
		for cut := range valid {
			ops[fmt.Sprintf("op kind %d truncated at %d/%d", op.Kind, cut, len(valid))] = valid[:cut]
		}
	}
	for name, op := range ops {
		// Shard hop: a wave-2 body with this one op frame (kind 5).
		body := codec.AppendHeaderFrame(nil, router.IngestBatchHeader{ArrivedNs: 1, Count: 1})
		body = codec.AppendSumFrame(codec.AppendFrame(body, 5, op))
		if _, _, err := router.DecodeIngestBatch(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("DecodeIngestBatch(%s): err = %v, want a wire-format error", name, err)
		}
		// Replication hop: a shipment with this one window op (log seq 1,
		// arrival 1).
		logged := append([]byte{byte(replica.KindWindow), 1, 2}, op...)
		body = replica.EncodeApply(replica.ApplyHeader{From: "s0", Count: 1, Head: 1}, [][]byte{logged})
		if _, _, err := replica.DecodeApply(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("DecodeApply(%s): err = %v, want a wire-format error", name, err)
		}
	}

	// Entries: a drain/snapshot body (frame kind 4) on the shard hop, an
	// import op on the replication hop.
	valid := stream.AppendEntry(nil, stream.ExportedEntry{Point: pt, Seq: 9, Arrived: time.Unix(0, 77), Count: 4})
	entries := map[string][]byte{
		"entry count 2^31": append(binary.AppendUvarint(append([]byte(nil), valid[:len(valid)-2]...), math.MaxInt32+1), 0),
	}
	for cut := range valid {
		entries[fmt.Sprintf("entry truncated at %d/%d", cut, len(valid))] = valid[:cut]
	}
	for name, e := range entries {
		body := codec.AppendHeaderFrame(nil, map[string]int{"count": 1})
		body = codec.AppendSumFrame(codec.AppendFrame(body, 4, e))
		if _, err := router.DecodeEntries(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("DecodeEntries(%s): err = %v, want a wire-format error", name, err)
		}
		logged := append([]byte{byte(replica.KindImport), 1, 1}, e...)
		body = replica.EncodeApply(replica.ApplyHeader{From: "s0", Count: 1, Head: 1}, [][]byte{logged})
		if _, _, err := replica.DecodeApply(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("DecodeApply(import %s): err = %v, want a wire-format error", name, err)
		}
	}

	// Cell lists on their own: a wave-1 probe (point frame 2, cell frame 3).
	list := stream.AppendCells(nil, 2, cells)
	for cut := range list {
		body := codec.AppendFrame(codec.AppendHeaderFrame(nil, router.SupportHeader{}), 2, point)
		body = codec.AppendSumFrame(codec.AppendFrame(body, 3, list[:cut]))
		if _, _, err := router.DecodeSupportBatch(body); !errors.Is(err, errs.ErrWireFormat) {
			t.Errorf("DecodeSupportBatch(cells truncated at %d/%d): err = %v, want a wire-format error", cut, len(list), err)
		}
	}

	// And both hops accept the untampered rows, so the refusals above are
	// about the tampering.
	body := codec.AppendHeaderFrame(nil, router.IngestBatchHeader{ArrivedNs: 1, Count: 1})
	body = codec.AppendSumFrame(codec.AppendFrame(body, 5, support(-1)))
	if _, got, err := router.DecodeIngestBatch(body); err != nil || len(got) != 1 || got[0].Delta != -1 {
		t.Fatalf("valid wave-2 body: %+v, %v", got, err)
	}
	logged := append([]byte{byte(replica.KindWindow), 1, 2}, support(-1)...)
	body = replica.EncodeApply(replica.ApplyHeader{From: "s0", Count: 1, Head: 1}, [][]byte{logged})
	if _, got, err := replica.DecodeApply(body); err != nil || len(got) != 1 || got[0].ShardOp.Delta != -1 || got[0].ArrivedNs != 1 {
		t.Fatalf("valid shipment: %+v, %v", got, err)
	}
}

// reseal rebuilds a sealed body from its frames in the given order (indices
// into the unsealed frame list, repeats allowed) and seals it again.
func reseal(t *testing.T, body []byte, order ...int) []byte {
	t.Helper()
	data, err := codec.StripSumFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for len(data) > 0 {
		_, _, n, err := codec.DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		frames, data = append(frames, data[:n]), data[n:]
	}
	var out []byte
	for _, i := range order {
		out = append(out, frames[i]...)
	}
	return codec.AppendSumFrame(out)
}

// TestSealedHeaderFirstAndOnce: every sealed shard-tier body carries its
// header as the first frame, exactly once. A correctly sealed body with the
// header after a data frame, or with a second header, is a wire-format
// error from every decoder — not a header re-read over the first.
func TestSealedHeaderFirstAndOnce(t *testing.T) {
	pt := geom.Point{ID: 7, Coords: []float64{1.5, -2.25}}
	entry := stream.ExportedEntry{Point: pt, Seq: 9, Arrived: time.Unix(0, 77), Count: 4}
	op := stream.ShardOp{Kind: stream.OpEvict, ID: 300}
	logged := append([]byte{byte(replica.KindWindow), 1, 2}, stream.AppendShardOp(nil, &op)...)
	decoders := []struct {
		name   string
		body   []byte // header, then one or two data frames
		decode func([]byte) error
	}{
		{"DecodeIngestBatch", router.EncodeIngestBatch(router.IngestBatchHeader{ArrivedNs: 1, Count: 1}, []stream.ShardOp{op}),
			func(b []byte) error { _, _, err := router.DecodeIngestBatch(b); return err }},
		{"DecodeSupportBatch", router.EncodeSupportBatch(router.SupportHeader{}, []router.SupportProbe{{Point: pt, Cells: [][]int64{{1, 2}}}}),
			func(b []byte) error { _, _, err := router.DecodeSupportBatch(b); return err }},
		{"DecodeEntries", router.EncodeEntries([]stream.ExportedEntry{entry}),
			func(b []byte) error { _, err := router.DecodeEntries(b); return err }},
		{"DecodeApply", replica.EncodeApply(replica.ApplyHeader{From: "s0", Count: 1, Head: 1}, [][]byte{logged}),
			func(b []byte) error { _, _, err := replica.DecodeApply(b); return err }},
		{"DecodeSnapshot", replica.EncodeSnapshot(&replica.Snapshot{From: "s0", Seq: 3, Entries: []stream.ExportedEntry{entry}}),
			func(b []byte) error { _, err := replica.DecodeSnapshot(b); return err }},
	}
	for _, dec := range decoders {
		frames := 1
		if dec.name == "DecodeSupportBatch" {
			frames = 2 // a point frame and its cells frame
		}
		data := make([]int, frames)
		for i := range data {
			data[i] = i + 1
		}
		if err := dec.decode(reseal(t, dec.body, append([]int{0}, data...)...)); err != nil {
			t.Fatalf("%s: untampered body: %v", dec.name, err)
		}
		for name, order := range map[string][]int{
			"header last":  append(data, 0),
			"header twice": append(append([]int{0}, data...), 0),
		} {
			if err := dec.decode(reseal(t, dec.body, order...)); !errors.Is(err, errs.ErrWireFormat) {
				t.Errorf("%s(%s): err = %v, want a wire-format error", dec.name, name, err)
			}
		}
	}
}

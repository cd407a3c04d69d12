//go:build go1.18

package codec

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"dod/internal/errs"
	"dod/internal/geom"
)

// FuzzDecodePointInto hammers the columnar hot-path decoder with arbitrary
// bytes. Invariants under fuzzing: no panic, no unbounded allocation, every
// failure is an errs.ErrWireFormat-family error, the set is untouched on
// failure, and anything the decoder accepts re-encodes to the bytes it
// consumed (given the canonical uvarint prefix the encoder emits).
func FuzzDecodePointInto(f *testing.F) {
	f.Add(AppendPoint(nil, geom.Point{ID: 7, Coords: []float64{1.5, -2.25}}))
	f.Add(AppendPoint(nil, geom.Point{ID: 0, Coords: nil}))
	f.Add(AppendPoint(nil, geom.Point{ID: math.MaxUint64, Coords: []float64{math.Inf(1), math.NaN(), 0}}))
	full := AppendPoint(nil, geom.Point{ID: 300, Coords: []float64{3.14}})
	for i := range full { // every truncation of a valid record
		f.Add(full[:i])
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})                   // unterminated uvarint
	f.Add([]byte{1, 0xff, 0xff, 0xff, 3}) // implausible dimension

	f.Fuzz(func(t *testing.T, data []byte) {
		var set geom.PointSet
		n, err := DecodePointInto(data, &set)
		if err != nil {
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
			if set.Len() != 0 || len(set.Coords) != 0 {
				t.Fatalf("failed decode mutated the set: %d ids, %d coords", set.Len(), len(set.Coords))
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if set.Len() != 1 || len(set.Coords) != set.Dim {
			t.Fatalf("accepted decode left set inconsistent: %d ids, %d coords, dim %d",
				set.Len(), len(set.Coords), set.Dim)
		}

		// The scalar decoder must agree with the columnar one byte for byte.
		p, m, err := DecodePoint(data)
		if err != nil || m != n || p.ID != set.IDs[0] || len(p.Coords) != set.Dim {
			t.Fatalf("DecodePoint disagrees: %v n=%d vs %d, %+v", err, m, n, p)
		}

		// Re-encode and compare — NaN coordinates keep their exact bit
		// patterns through the float64 round-trip, so byte equality holds
		// whenever the input used canonical (minimal) uvarints, which we
		// verify by re-encoding the decoded header values.
		if again := AppendPoint(nil, p); string(again) != string(data[:n]) {
			// Non-canonical uvarint encodings decode fine but re-encode
			// shorter; only flag when lengths match (true corruption).
			if len(again) == n {
				t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, data[:n])
			}
		}
	})
}

// FuzzDecodeTaggedPointInto covers the tag-prefixed record path.
func FuzzDecodeTaggedPointInto(f *testing.F) {
	f.Add(AppendTaggedPoint(nil, TagCore, geom.Point{ID: 1, Coords: []float64{2}}))
	f.Add(AppendTaggedPoint(nil, TagSupport, geom.Point{ID: 2, Coords: []float64{-1, 1}}))
	f.Add([]byte{})
	f.Add([]byte{TagSupport})

	f.Fuzz(func(t *testing.T, data []byte) {
		var set geom.PointSet
		tag, n, err := DecodeTaggedPointInto(data, &set)
		if err != nil {
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
			return
		}
		if n < 2 || n > len(data) || tag != data[0] {
			t.Fatalf("tag %d, consumed %d of %d bytes", tag, n, len(data))
		}
		if set.Len() != 1 {
			t.Fatalf("accepted decode appended %d points", set.Len())
		}
	})
}

// FuzzDecodePointsInto covers the block decoder: a forged count header must
// never cause a huge allocation (decoding allocates at most 64 bytes per
// input byte plus 16 KiB) or mask a truncated tail.
func FuzzDecodePointsInto(f *testing.F) {
	f.Add(EncodePoints(nil))
	f.Add(EncodePoints([]geom.Point{{ID: 1, Coords: []float64{1, 2}}, {ID: 2, Coords: []float64{3, 4}}}))
	block := EncodePoints([]geom.Point{{ID: 9, Coords: []float64{0.5}}})
	for i := range block {
		f.Add(block[:i])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})                     // count ~2^32, no payload
	f.Add(append([]byte{8, 1, 0xff, 0xff, 3}, make([]byte, 30)...)) // forged dim in a fitting count

	f.Fuzz(func(t *testing.T, data []byte) {
		var set geom.PointSet
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodePointsInto(data, &set)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (> %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
			return
		}
		// The allocating decoder must accept exactly the same blocks.
		points, err := DecodePoints(data)
		if err != nil || len(points) != set.Len() {
			t.Fatalf("DecodePoints disagrees: %v, %d vs %d points", err, len(points), set.Len())
		}
	})
}

// FuzzDecodeFrame covers the framing layer used by the DFS and the
// distributed runtime's task/result messages.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 1, []byte("payload")))
	f.Add(AppendFrame(nil, 5, nil))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x7f}) // length far beyond the buffer

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
			return
		}
		if n > len(data) || kind != data[0] {
			t.Fatalf("kind %d, consumed %d of %d bytes", kind, n, len(data))
		}
		if again := AppendFrame(nil, kind, payload); len(again) != n {
			// Non-canonical length uvarints shrink on re-encode; anything
			// else must round-trip exactly.
			if string(again) == string(data[:n]) {
				t.Fatalf("inconsistent frame accounting: n=%d re-encoded=%d", n, len(again))
			}
		}
	})
}

// FuzzDecodeKVs covers the shuffle record lists shipped between workers.
func FuzzDecodeKVs(f *testing.F) {
	f.Add(AppendKVs(nil, nil))
	f.Add(AppendKVs(nil, []KV{{Key: 1, Value: []byte("a")}, {Key: 2, Value: nil}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f}) // forged count

	f.Fuzz(func(t *testing.T, data []byte) {
		kvs, n, err := DecodeKVs(data)
		if err != nil {
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for _, kv := range kvs {
			_ = kv.Key
		}
	})
}

// FuzzDecodeKVColumns holds the columnar decoder to DecodeKVs on every
// input: the same error or none, the same bytes consumed and the same
// records. A forged count or length must not buy an allocation: decoding
// allocates at most 64 bytes per input byte plus 16 KiB.
func FuzzDecodeKVColumns(f *testing.F) {
	f.Add(AppendKVs(nil, nil))
	f.Add(AppendKVs(nil, []KV{{Key: 1, Value: []byte("a")}, {Key: 2, Value: nil}, {Key: 1 << 60, Value: []byte("bcd")}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f})       // forged count
	f.Add([]byte{2, 1, 0xff, 0xff, 0xff, 0x7f}) // value length far beyond the buffer
	f.Add([]byte{1, 0x80})                      // unterminated key

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cols, n, err := DecodeKVColumns(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (> %d)", len(data), got, limit)
		}
		kvs, wantN, wantErr := DecodeKVs(data)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeKVColumns error %v, DecodeKVs error %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrWireFormat) {
				t.Fatalf("non-wire-format error: %v", err)
			}
			return
		}
		if n != wantN || cols.Len() != len(kvs) {
			t.Fatalf("consumed %d bytes into %d records, DecodeKVs %d into %d", n, cols.Len(), wantN, len(kvs))
		}
		for i, kv := range kvs {
			if cols.Keys[i] != kv.Key || !bytes.Equal(cols.Value(i), kv.Value) {
				t.Fatalf("record %d: (%d, %x), DecodeKVs (%d, %x)", i, cols.Keys[i], cols.Value(i), kv.Key, kv.Value)
			}
		}
		if again := AppendKVColumns(nil, &cols); !bytes.Equal(again, AppendKVs(nil, kvs)) || len(again) != KVColumnsLen(&cols) {
			t.Fatalf("re-encoded columns differ from the re-encoded records")
		}
	})
}

// FuzzStripSumFrame seals a body, XORs a non-empty mask into it at an
// offset, and requires StripSumFrame never to accept the changed body with
// different bytes: it fails with ErrWireFormat or returns the original.
func FuzzStripSumFrame(f *testing.F) {
	f.Add([]byte("header"), []byte{1}, uint16(0))
	f.Add(make([]byte, 300), []byte{0x80, 0, 0, 1}, uint16(150))
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(3))
	f.Fuzz(func(t *testing.T, data, mask []byte, off uint16) {
		sealed := AppendSumFrame(AppendFrame(nil, 2, data))
		orig := append([]byte(nil), sealed[:len(sealed)-FrameLen(8)]...)
		start := int(off) % len(sealed)
		changed := false
		for i, m := range mask {
			if start+i < len(sealed) && m != 0 {
				sealed[start+i] ^= m
				changed = true
			}
		}
		if !changed {
			t.Skip("mask changes no byte")
		}
		got, err := StripSumFrame(sealed)
		if err == nil && !bytes.Equal(got, orig) {
			t.Fatalf("changed body accepted: %x, want %x", got, orig)
		}
		if err != nil && !errors.Is(err, errs.ErrWireFormat) {
			t.Fatalf("non-wire error %v", err)
		}
	})
}

package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"dod/internal/geom"
)

// TestKVColumnsMatchesKVs: records appended from one reused buffer read
// back as the values appended, each capacity-clipped, and the columns
// write the bytes AppendKVs writes for the same records, into a frame
// of AppendKVsFrame's bytes.
func TestKVColumnsMatchesKVs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 15, 16, 17, 300, 5000} {
		var cols KVColumns
		var kvs []KV
		buf := make([]byte, 40)
		for i := 0; i < n; i++ {
			buf = buf[:rng.Intn(40)]
			rng.Read(buf)
			key := rng.Uint64() >> uint(rng.Intn(64))
			cols.Append(key, buf) // buf is overwritten for the next record
			kvs = append(kvs, KV{Key: key, Value: append([]byte(nil), buf...)})
		}
		if cols.Len() != n {
			t.Fatalf("%d records appended, Len %d", n, cols.Len())
		}
		for i, kv := range kvs {
			v := cols.Value(i)
			if cols.Keys[i] != kv.Key || !bytes.Equal(v, kv.Value) || cap(v) != len(v) {
				t.Fatalf("record %d of %d: (%d, %x) cap %d, want (%d, %x)", i, n, cols.Keys[i], v, cap(v), kv.Key, kv.Value)
			}
		}
		for i, p := range cols.Pairs() {
			if p.Key != kvs[i].Key || !bytes.Equal(p.Value, kvs[i].Value) {
				t.Fatalf("Pairs()[%d] = (%d, %x), want (%d, %x)", i, p.Key, p.Value, kvs[i].Key, kvs[i].Value)
			}
		}
		want := AppendKVs(nil, kvs)
		if got := AppendKVColumns(nil, &cols); !bytes.Equal(got, want) || KVColumnsLen(&cols) != len(want) {
			t.Fatalf("%d records: columns encode to %d bytes (KVColumnsLen %d), want AppendKVs' %d", n, len(got), KVColumnsLen(&cols), len(want))
		}
		if got, want := AppendKVColumnsFrame([]byte{9}, 4, &cols), AppendKVsFrame([]byte{9}, 4, kvs); !bytes.Equal(got, want) {
			t.Fatalf("%d records: columns frame differs from AppendKVsFrame", n)
		}
		back, m, err := DecodeKVColumns(want)
		if err != nil || m != len(want) || !bytes.Equal(AppendKVColumns(nil, &back), want) {
			t.Fatalf("%d records: decoded %d records from %d of %d bytes: %v", n, back.Len(), m, len(want), err)
		}
	}
}

// TestDecodePointsAllocs: a block of n points of one dimensionality
// decodes in two allocations, the point list and one coordinate slab
// that every point's capacity-clipped Coords is carved from.
func TestDecodePointsAllocs(t *testing.T) {
	pts := blockPoints(1024, 2)
	block := EncodePoints(pts)
	got, err := DecodePoints(block)
	if err != nil || len(got) != len(pts) {
		t.Fatalf("decoded %d points: %v", len(got), err)
	}
	for i, p := range got {
		if p.ID != pts[i].ID || len(p.Coords) != 2 || cap(p.Coords) != 2 || p.Coords[0] != pts[i].Coords[0] || p.Coords[1] != pts[i].Coords[1] {
			t.Fatalf("point %d = %v (cap %d), want %v", i, p, cap(p.Coords), pts[i])
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = DecodePoints(block) }); allocs != 2 {
		t.Errorf("DecodePoints on %d points made %v allocations, want 2", len(pts), allocs)
	}
	mixed := EncodePoints([]geom.Point{{ID: 1, Coords: []float64{1}}, {ID: 2, Coords: []float64{2, 3, 4}}})
	if got, err := DecodePoints(mixed); err != nil || len(got[1].Coords) != 3 || got[1].Coords[2] != 4 || got[0].Coords[0] != 1 {
		t.Fatalf("mixed-dimension block decoded to %v: %v", got, err)
	}
}

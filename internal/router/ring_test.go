package router

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"dod/internal/geom"
	"dod/internal/index"
	"dod/internal/stream"
)

func testTopology(shards ...string) *Topology {
	t := &Topology{Epoch: 1, Dim: 2, R: 5, K: 4, Block: 4, Vnodes: 32}
	for _, s := range shards {
		t.Shards = append(t.Shards, ShardInfo{Name: s, URL: "http://" + s})
	}
	return t
}

// Ownership must be a pure function of the marshaled topology: two
// processes that exchange the JSON form agree on every cell, and epoch or
// URL changes don't move blocks.
func TestTopologyOwnerDeterministic(t *testing.T) {
	topo := testTopology("a", "b", "c")
	raw, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var remote Topology
	if err := json.Unmarshal(raw, &remote); err != nil {
		t.Fatal(err)
	}
	for x := int64(-50); x <= 50; x += 3 {
		for y := int64(-50); y <= 50; y += 3 {
			cell := []int64{x, y}
			if got, want := remote.Owner(cell), topo.Owner(cell); got != want {
				t.Fatalf("cell %v: remote owner %q != local %q", cell, got, want)
			}
		}
	}
}

// Cells in the same block share an owner — the invariant that keeps ring
// expansion shard-local for interior cells.
func TestTopologyBlockLocality(t *testing.T) {
	topo := testTopology("a", "b", "c", "d")
	for bx := int64(-4); bx < 4; bx++ {
		for by := int64(-4); by < 4; by++ {
			base := topo.Owner([]int64{bx * int64(topo.Block), by * int64(topo.Block)})
			for dx := int64(0); dx < int64(topo.Block); dx++ {
				for dy := int64(0); dy < int64(topo.Block); dy++ {
					cell := []int64{bx*int64(topo.Block) + dx, by*int64(topo.Block) + dy}
					if got := topo.Owner(cell); got != base {
						t.Fatalf("cell %v owned by %q, block corner by %q", cell, got, base)
					}
				}
			}
		}
	}
}

// Removing one shard must not move blocks between surviving shards —
// the consistent-hashing property that makes drain/handoff touch only the
// departing shard's points.
func TestTopologyWithoutIsMinimal(t *testing.T) {
	topo := testTopology("a", "b", "c", "d")
	after := topo.Without("c")
	if after.Epoch != topo.Epoch+1 {
		t.Fatalf("Without epoch = %d, want %d", after.Epoch, topo.Epoch+1)
	}
	moved, kept := 0, 0
	for x := int64(-200); x <= 200; x += 7 {
		for y := int64(-200); y <= 200; y += 7 {
			cell := []int64{x, y}
			before := topo.Owner(cell)
			now := after.Owner(cell)
			if before == "c" {
				if now == "c" {
					t.Fatalf("cell %v still owned by removed shard", cell)
				}
				moved++
				continue
			}
			if now != before {
				t.Fatalf("cell %v moved %q -> %q though %q was not removed", cell, before, now, before)
			}
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// The distribution across shards should be roughly balanced (vnodes do the
// smoothing); a catastrophically skewed ring would defeat sharding.
func TestTopologyBalance(t *testing.T) {
	topo := testTopology("a", "b", "c", "d")
	counts := map[string]int{}
	total := 0
	for x := int64(-300); x <= 300; x += int64(topo.Block) {
		for y := int64(-300); y <= 300; y += int64(topo.Block) {
			counts[topo.Owner([]int64{x, y})]++
			total++
		}
	}
	for name, n := range counts {
		frac := float64(n) / float64(total)
		if frac < 0.05 {
			t.Errorf("shard %q owns %.1f%% of blocks — ring badly skewed", name, frac*100)
		}
	}
}

// CellOf must agree bit-for-bit with the incremental index's cell layout;
// a disagreement would route a point to a shard that files it in a
// different cell than the topology thinks it owns.
func TestCellOfMatchesIndex(t *testing.T) {
	topo := &Topology{Dim: 2, R: 5, Shards: []ShardInfo{{Name: "a"}}}
	ix, err := index.New(index.Config{Dim: 2, R: 5})
	if err != nil {
		t.Fatal(err)
	}
	pts := [][]float64{
		{0, 0}, {-0.0001, 0.0001}, {17.3, -42.8}, {1e9, -1e9},
		{math.Pi, -math.E}, {-5, 5}, {2.5, 2.5},
	}
	for i, coords := range pts {
		p := geom.Point{ID: uint64(i), Coords: coords}
		got := topo.CellOf(coords)
		want := ix.CellCoords(p)
		for d := range got {
			if got[d] != want[d] {
				t.Fatalf("point %v: topology cell %v != index cell %v", coords, got, want)
			}
		}
	}
}

func TestWireRoundTrips(t *testing.T) {
	p := geom.Point{ID: 42, Coords: []float64{1.5, -2.25}}

	cells := [][]int64{{-3, 4}, {0, 0}, {9223372036854775807, -9223372036854775808}}
	q := geom.Point{ID: 43, Coords: []float64{-0.5, 8}}

	ops := []stream.ShardOp{
		{Kind: stream.OpEvict, ID: 9},
		{Kind: stream.OpAdmit, Point: p, Seq: 7, Foreign: 2},
		{Kind: stream.OpSupport, Point: q, Cells: cells, Delta: -1},
	}
	ib := EncodeIngestBatch(IngestBatchHeader{ArrivedNs: 123456, Count: len(ops)}, ops)
	hdr, gotOps, err := DecodeIngestBatch(ib)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ArrivedNs != 123456 || !reflect.DeepEqual(gotOps, ops) {
		t.Fatalf("ingest batch round-trip mismatch: %+v %+v", hdr, gotOps)
	}

	probes := []SupportProbe{{Point: p, Cells: cells}, {Point: q, Cells: cells[:1]}}
	sb := EncodeSupportBatch(SupportHeader{Limit: 5, Victims: []uint64{9, 11}}, probes)
	shdr, gotProbes, err := DecodeSupportBatch(sb)
	if err != nil {
		t.Fatal(err)
	}
	if shdr.Limit != 5 || !reflect.DeepEqual(shdr.Victims, []uint64{9, 11}) || !reflect.DeepEqual(gotProbes, probes) {
		t.Fatalf("support round-trip mismatch: %+v %+v", shdr, gotProbes)
	}

	// Entries travel as the window's own type, victims (outliers with zero
	// neighbors) and negative arrival instants included.
	entries := []stream.ExportedEntry{
		{Point: p, Seq: 3, Arrived: time.Unix(0, -12), Count: 9, Outlier: true},
		{Point: geom.Point{ID: 1, Coords: []float64{0, 0}}, Seq: 4, Arrived: time.Unix(0, 0), Count: 0, Outlier: false},
	}
	got, err := DecodeEntries(EncodeEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("entries round-trip mismatch:\ngot:  %+v\nwant: %+v", got, entries)
	}
	if got, err := DecodeEntries(EncodeEntries(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty entry body: %v, %v", got, err)
	}

	// Corruption anywhere in a sealed body must be a typed failure.
	for off := 0; off < len(sb); off++ {
		mut := append([]byte(nil), sb...)
		mut[off] ^= 0x40
		if _, _, err := DecodeSupportBatch(mut); err == nil {
			t.Fatalf("corrupted byte %d decoded cleanly", off)
		}
	}
}

package stream

import (
	"testing"
	"time"

	"dod/internal/geom"
)

// digestWindow builds a single-owner shard window and admits n points in a
// tight cluster (so neighbor counts and verdict flips actually happen).
func digestWindow(t *testing.T, n int) *ShardWindow {
	t.Helper()
	sw, err := NewShardWindow(ShardConfig{R: 1.2, K: 3, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := geom.Point{ID: uint64(i + 1), Coords: []float64{float64(i % 4), float64(i % 3)}}
		applyOp(t, sw, time.Unix(0, int64(i)), ShardOp{Kind: OpAdmit, Point: p, Seq: uint64(i + 1)})
	}
	return sw
}

// applyOp applies one op to a window that owns every cell and fails the
// test if the window refuses it.
func applyOp(t *testing.T, sw *ShardWindow, now time.Time, op ShardOp) {
	t.Helper()
	if _, errs := sw.ApplyOps([]ShardOp{op}, now, nil); errs[0] != nil {
		t.Fatalf("op %+v: %v", op, errs[0])
	}
}

// TestDigestDeterministic pins the anti-entropy contract: two windows built
// by the same mutation sequence hash identically, and any divergence —
// membership, a neighbor count, a verdict — changes the digest.
func TestDigestDeterministic(t *testing.T) {
	a := digestWindow(t, 24)
	b := digestWindow(t, 24)
	da, na := a.Digest()
	db, nb := b.Digest()
	if da != db || na != nb {
		t.Fatalf("identical histories digest differently: (%x,%d) vs (%x,%d)", da, na, db, nb)
	}
	if na != 24 {
		t.Fatalf("digest points = %d, want 24", na)
	}

	// One extra admission diverges the digest.
	applyOp(t, b, time.Unix(0, 0), ShardOp{Kind: OpAdmit, Point: geom.Point{ID: 1000, Coords: []float64{50, 50}}, Seq: 1000})
	if db2, _ := b.Digest(); db2 == da {
		t.Fatal("digest unchanged after admission")
	}

	// A bare support delta — same membership, different count — diverges it
	// too: the digest covers counts, not just point identity.
	dc, _ := a.Digest()
	// Residents at (1,1) live in cell (2,2) with side r/(2√2)≈0.424.
	probe, cells := geom.Point{ID: 2000, Coords: []float64{1, 1}}, [][]int64{{2, 2}}
	if n, err := a.ApplySupport(probe, cells, 0); err != nil || n == 0 {
		t.Fatalf("support probe: n=%d err=%v (probe must touch residents)", n, err)
	}
	if dc1, _ := a.Digest(); dc1 != dc {
		t.Fatal("digest changed after a read-only support probe")
	}
	applyOp(t, a, time.Unix(0, 0), ShardOp{Kind: OpSupport, Point: probe, Cells: cells, Delta: +1})
	if dc2, _ := a.Digest(); dc2 == dc {
		t.Fatal("digest unchanged after a count delta")
	}
}

// TestDigestEvictionOrderIndependent checks the digest hashes canonical
// (sequence) order, not map iteration order: windows whose surviving state
// is equal digest equally even when interior evictions happened.
func TestDigestEvictionOrderIndependent(t *testing.T) {
	a := digestWindow(t, 12)
	b := digestWindow(t, 12)
	for _, id := range []uint64{3, 7} {
		for _, sw := range []*ShardWindow{a, b} {
			applyOp(t, sw, time.Unix(0, 0), ShardOp{Kind: OpEvict, ID: id})
		}
	}
	da, na := a.Digest()
	db, nb := b.Digest()
	if da != db || na != nb {
		t.Fatalf("equal post-eviction windows digest differently: (%x,%d) vs (%x,%d)", da, na, db, nb)
	}
	if na != 10 {
		t.Fatalf("points = %d, want 10", na)
	}
}

// TestReset pins the standby-bootstrap contract: Reset empties the resident
// state (a fresh digest) while preserving the monotone counters, so a
// snapshot install never rewinds a shard's lifetime statistics.
func TestReset(t *testing.T) {
	sw := digestWindow(t, 16)
	before := sw.Stats()
	if before.Len != 16 || before.Ingested != 16 {
		t.Fatalf("pre-reset stats: %+v", before)
	}

	sw.Reset()
	after := sw.Stats()
	if after.Len != 0 {
		t.Fatalf("post-reset len = %d, want 0", after.Len)
	}
	if after.Ingested != before.Ingested || after.Evicted != before.Evicted ||
		after.FlipIn != before.FlipIn || after.FlipOut != before.FlipOut {
		t.Fatalf("reset rewound monotone counters: before %+v after %+v", before, after)
	}

	fresh, err := NewShardWindow(ShardConfig{R: 1.2, K: 3, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	dReset, nReset := sw.Digest()
	dFresh, nFresh := fresh.Digest()
	if dReset != dFresh || nReset != nFresh {
		t.Fatalf("reset window digests (%x,%d), fresh digests (%x,%d)", dReset, nReset, dFresh, nFresh)
	}

	// A reset window accepts a snapshot import and digests identically to a
	// window that held the same entries all along.
	ref := digestWindow(t, 8)
	if err := sw.Import(ref.Export()); err != nil {
		t.Fatal(err)
	}
	dImp, nImp := sw.Digest()
	dRef, nRef := ref.Digest()
	if dImp != dRef || nImp != nRef {
		t.Fatalf("import after reset digests (%x,%d), source digests (%x,%d)", dImp, nImp, dRef, nRef)
	}
}

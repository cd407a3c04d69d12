package pgraph

import (
	"testing"

	"dod/internal/geom"
	"dod/internal/synth"
)

func setOf(pts []geom.Point) *geom.PointSet {
	s := geom.NewPointSet(pts[0].Dim(), len(pts))
	for _, p := range pts {
		s.Append(p)
	}
	return s
}

// trueCount is the reference linear neighbor count.
func trueCount(s *geom.PointSet, i int, r2 float64) int {
	n, _ := s.CountWithin2Coords(s.CoordsAt(i), s.IDs[i], 0, s.Len(), r2, s.Len())
	return n
}

// TestCertificateSound is the guarantee the detector's exactness rests on:
// whenever a walk certifies a point, the point truly has at least k
// neighbors within r. (The converse may fail — that is what the fallback
// is for.)
func TestCertificateSound(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pts, _ := synth.HighDimPlanted(1500, 16, 4, 0.05, seed)
		s := setOf(pts)
		g, _ := Build(s, seed)
		sc := NewScratch(s.Len())
		r2 := 16.0
		const k = 4
		for i := 0; i < s.Len(); i++ {
			found, certified, _ := g.CountWithin(i, r2, k, sc)
			if certified && found < k {
				t.Fatalf("seed %d point %d: certified with found=%d < k=%d", seed, i, found, k)
			}
			if certified && trueCount(s, i, r2) < k {
				t.Fatalf("seed %d point %d: certified but true count %d < k",
					seed, i, trueCount(s, i, r2))
			}
		}
	}
}

// TestBuildDeterministic: identical (set, seed) must build identical
// graphs — adjacency, degrees, entry, and comp counts.
func TestBuildDeterministic(t *testing.T) {
	pts := synth.GaussianCloud(800, 8, 5)
	s := setOf(pts)
	g1, c1 := Build(s, 42)
	g2, c2 := Build(s, 42)
	if c1 != c2 || g1.entry != g2.entry {
		t.Fatalf("build diverged: comps %d vs %d, entry %d vs %d", c1, c2, g1.entry, g2.entry)
	}
	for i := range g1.adj {
		if g1.adj[i] != g2.adj[i] {
			t.Fatalf("adjacency diverges at %d", i)
		}
	}
	for i := range g1.deg {
		if g1.deg[i] != g2.deg[i] {
			t.Fatalf("degree diverges at node %d", i)
		}
	}
}

// TestDegreeBound: no adjacency list may exceed Degree.
func TestDegreeBound(t *testing.T) {
	pts, _ := synth.HighDimPlanted(1000, 32, 4, 0.02, 7)
	s := setOf(pts)
	g, _ := Build(s, 7)
	for i, d := range g.deg {
		if d < 0 || d > Degree {
			t.Fatalf("node %d degree %d out of [0, %d]", i, d, Degree)
		}
	}
}

// TestHighCertificationOnClusters: on well-clustered data nearly every
// inlier must certify from its own adjacency — the property that makes the
// tactic sub-quadratic.
func TestHighCertificationOnClusters(t *testing.T) {
	pts, planted := synth.HighDimPlanted(3000, 32, 4, 0.01, 3)
	s := setOf(pts)
	g, _ := Build(s, 1)
	sc := NewScratch(s.Len())
	fallbacks := 0
	for i := 0; i < s.Len(); i++ {
		if _, certified, _ := g.CountWithin(i, 16.0, 4, sc); !certified {
			fallbacks++
		}
	}
	// Planted outliers can never certify; allow a small straggler margin
	// beyond them.
	if limit := len(planted) + s.Len()/20; fallbacks > limit {
		t.Fatalf("%d fallbacks out of %d points (planted %d, limit %d)",
			fallbacks, s.Len(), len(planted), limit)
	}
}

func TestTinySets(t *testing.T) {
	g, comps := Build(geom.NewPointSet(2, 0), 1)
	if comps != 0 {
		t.Fatalf("empty build cost %d comps", comps)
	}
	_ = g

	one := setOf([]geom.Point{{ID: 9, Coords: []float64{1, 1}}})
	g, _ = Build(one, 1)
	sc := NewScratch(1)
	found, certified, _ := g.CountWithin(0, 100, 1, sc)
	if certified || found != 0 {
		t.Fatalf("single point: found=%d certified=%v, want 0/false", found, certified)
	}
}

func TestWalkBudgetBounds(t *testing.T) {
	if EfSearch(1) != 128 || EfSearch(100) != 400 {
		t.Fatalf("EfSearch: got %d, %d", EfSearch(1), EfSearch(100))
	}
	if WalkBudget(1) != 8*128 {
		t.Fatalf("WalkBudget(1) = %d", WalkBudget(1))
	}
}

// TestBuildAllocsConstant: Build reuses its Scratch buffers from node to
// node, so its allocations are the graph's arrays plus a few buffer
// growths, not a function of n.
func TestBuildAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		pts, _ := synth.HighDimUniform(n, 32, 4, 0.02, 3)
		s := setOf(pts)
		return testing.AllocsPerRun(2, func() { Build(s, 3) })
	}
	small, large := allocs(500), allocs(4000)
	t.Logf("Build allocations: %v at n=500, %v at n=4000", small, large)
	if large-small > 4 {
		t.Fatalf("Build allocations grow with n: %v at n=500, %v at n=4000", small, large)
	}
}

// TestCountWithinAllocs: NewScratch sizes every buffer a walk uses, so a
// fresh scratch carries a whole detection pass, at k = 4 and at the widest
// k of EfSearch's floor, without one allocation; and it is three
// allocations itself (the struct, the marks and one candidate slab).
func TestCountWithinAllocs(t *testing.T) {
	pts, _ := synth.HighDimUniform(2000, 32, 4, 0.02, 5)
	s := setOf(pts)
	g, _ := Build(s, 5)
	const runs = 3
	fresh := make([]*Scratch, runs+1) // AllocsPerRun calls once more to warm up
	for i := range fresh {
		fresh[i] = NewScratch(s.Len())
	}
	next := 0
	walks := testing.AllocsPerRun(runs, func() {
		sc := fresh[next]
		next++
		for i := 0; i < s.Len(); i++ {
			g.CountWithin(i, 16, 4, sc)
			g.CountWithin(i, 16, 32, sc)
		}
	})
	if walks != 0 {
		t.Errorf("a detection pass on a fresh scratch made %v allocations, want 0", walks)
	}
	if got := testing.AllocsPerRun(runs, func() { NewScratch(s.Len()) }); got > 3 {
		t.Errorf("NewScratch made %v allocations, want at most 3", got)
	}
}

package index

import (
	"math/rand"
	"testing"

	"dod/internal/geom"
)

// checkStripes fails unless every stripe's bookkeeping is consistent: its
// live count is the number of cells linked into its map, none of them
// empty, its free list holds only emptied, unlinked cells and is never
// longer than the live count, and its point count is the sum of its cells'.
func checkStripes(t *testing.T, ix *Index) {
	t.Helper()
	for s := range ix.shards {
		sh := &ix.shards[s]
		live, points := 0, 0
		for _, c := range sh.cells {
			for ; c != nil; c = c.next {
				live++
				points += len(c.ids)
				if len(c.ids) == 0 || len(c.tags) != len(c.ids) || len(c.xs) != len(c.ids)*ix.dim {
					t.Fatalf("stripe %d: live cell %v has %d ids, %d tags, %d coordinates", s, c.coords, len(c.ids), len(c.tags), len(c.xs))
				}
			}
		}
		if live != sh.live || points != sh.n {
			t.Fatalf("stripe %d: %d cells and %d points linked, bookkeeping says %d and %d", s, live, points, sh.live, sh.n)
		}
		if len(sh.free) > sh.live {
			t.Fatalf("stripe %d: %d free cells for %d live", s, len(sh.free), sh.live)
		}
		for _, c := range sh.free {
			if len(c.ids)+len(c.tags)+len(c.xs) != 0 || c.next != nil {
				t.Fatalf("stripe %d: free cell %v still holds residents or a chain", s, c.coords)
			}
		}
	}
}

// TestRecycledCellsStayExact churns points through a small grid — inserts
// and removes in random order, at coordinates that repeat, so cells empty,
// go onto their stripe's free list and come back for other coordinates —
// and after every step holds the stripes' bookkeeping consistent and the
// tag walk exact: every tag names a resident point within r, once, and
// brute force finds no other.
func TestRecycledCellsStayExact(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		const r = 1.0
		rng := rand.New(rand.NewSource(int64(50 + dim)))
		ix, err := New(Config{Dim: dim, R: r, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Sites 0.35 apart, under any cell side: cells are shared, and with
		// about half the pool resident they empty and refill.
		sites := map[int]int{1: 300, 2: 30, 3: 10}[dim]
		pool := make([]geom.Point, 300) // tag i is pool[i]
		for i := range pool {
			c := make([]float64, dim)
			for j := range c {
				c[j] = float64(rng.Intn(sites)) * 0.35
			}
			pool[i] = geom.Point{ID: uint64(1000 + i), Coords: c}
		}
		in := make([]bool, len(pool))
		sc := NewCountScratch()
		recycled := 0
		for step := 0; step < 3000; step++ {
			i := rng.Intn(len(pool))
			if in[i] {
				if !ix.Remove(pool[i]) {
					t.Fatalf("dim %d step %d: Remove lost point %d", dim, step, pool[i].ID)
				}
			} else {
				before := 0
				for s := range ix.shards {
					before += len(ix.shards[s].free)
				}
				if err := ix.InsertTag(pool[i], uint32(i)); err != nil {
					t.Fatal(err)
				}
				after := 0
				for s := range ix.shards {
					after += len(ix.shards[s].free)
				}
				recycled += before - after
			}
			in[i] = !in[i]
			checkStripes(t, ix)
			q := pool[rng.Intn(len(pool))]
			seen := make(map[uint32]bool)
			if _, err := ix.Neighbors(sc, q, nil, 0, func(tag uint32) {
				if seen[tag] || !in[tag] || pool[tag].ID == q.ID || !geom.WithinDist(q, pool[tag], r) {
					t.Fatalf("dim %d step %d: walk from %d handed back tag %d (seen %v, resident %v)", dim, step, q.ID, tag, seen[tag], in[tag])
				}
				seen[tag] = true
			}); err != nil {
				t.Fatal(err)
			}
			want := 0
			for j, p := range pool {
				if in[j] && p.ID != q.ID && geom.WithinDist(q, p, r) {
					want++
				}
			}
			if len(seen) != want {
				t.Fatalf("dim %d step %d: walk from %d found %d neighbours, brute force %d", dim, step, q.ID, len(seen), want)
			}
		}
		if recycled < 100 {
			t.Errorf("dim %d: only %d inserts reused an emptied cell", dim, recycled)
		}
		t.Logf("dim %d: %d inserts reused an emptied cell", dim, recycled)
	}
}

// TestDrainedStripeReleasesItsMap: a stripe whose cells all leave after it
// grew past releasePeak swaps its cell map for a fresh one and keeps no
// free cells; refilling it works as before.
func TestDrainedStripeReleasesItsMap(t *testing.T) {
	ix, err := New(Config{Dim: 2, R: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := randPoints(4*releasePeak, 2, 100, 5)
	for round := 0; round < 2; round++ {
		for _, p := range pts {
			if err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		checkStripes(t, ix)
		if sh := &ix.shards[0]; sh.live <= releasePeak {
			t.Fatalf("%d points fill only %d cells", len(pts), sh.live)
		}
		for _, p := range pts {
			ix.Remove(p)
			checkStripes(t, ix)
		}
		if sh := &ix.shards[0]; sh.free != nil || sh.peak != 0 || len(sh.cells) != 0 {
			t.Fatalf("round %d: drained stripe keeps %d free cells (peak %d, %d map keys)", round, len(sh.free), sh.peak, len(sh.cells))
		}
	}
}

// TestInsertRemoveAllocateNothing pins the recycling: once a stripe has an
// emptied cell to hand out, a point inserted into a new cell and removed
// again allocates nothing.
func TestInsertRemoveAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	ix, err := New(Config{Dim: 2, R: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randPoints(50, 2, 20, 8) {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Point{ID: 999, Coords: []float64{-30, -30}} // a cell of its own
	cycle := func() {
		if err := ix.InsertTag(p, 7); err != nil || !ix.Remove(p) {
			t.Fatalf("cycle: insert %v", err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("insert and remove through a recycled cell allocate %v per run, want 0", allocs)
	}
}

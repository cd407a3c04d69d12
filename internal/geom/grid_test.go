package geom

import (
	"math/rand"
	"testing"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 20), []int{5, 4})
	if g.NumCells() != 20 {
		t.Fatalf("NumCells = %d, want 20", g.NumCells())
	}
	if g.CellWidth(0) != 2 || g.CellWidth(1) != 5 {
		t.Fatalf("widths = %g,%g", g.CellWidth(0), g.CellWidth(1))
	}
}

func TestGridCellCoords(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 10), []int{10, 10})
	cases := []struct {
		p    Point
		want [2]int
	}{
		{pt(0, 0), [2]int{0, 0}},
		{pt(0.5, 9.5), [2]int{0, 9}},
		{pt(10, 10), [2]int{9, 9}}, // upper boundary → last cell
		{pt(-3, 50), [2]int{0, 9}}, // out of domain → clamped
		{pt(4.999, 5.0), [2]int{4, 5}},
	}
	for _, tc := range cases {
		got := g.Unflatten(g.CellOrdinal(tc.p))
		if got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("cell of %v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestGridFlattenRoundTrip(t *testing.T) {
	g := NewGrid(NewRect([]float64{0, 0, 0}, []float64{1, 1, 1}), []int{3, 4, 5})
	for ord := 0; ord < g.NumCells(); ord++ {
		idx := g.Unflatten(ord)
		if back := g.Flatten(idx); back != ord {
			t.Fatalf("roundtrip %d -> %v -> %d", ord, idx, back)
		}
	}
}

func TestGridCellRectContainsItsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGrid(r2(-5, -5, 5, 5), []int{7, 9})
	for i := 0; i < 1000; i++ {
		p := pt(rng.Float64()*10-5, rng.Float64()*10-5)
		idx := g.Unflatten(g.CellOrdinal(p))
		rect := g.CellRect(idx)
		if !rect.Contains(p) {
			t.Fatalf("cell rect %v does not contain %v (idx %v)", rect, p, idx)
		}
	}
}

func TestGridCellRectsTileDomain(t *testing.T) {
	g := NewGrid(r2(0, 0, 6, 6), []int{3, 3})
	var total float64
	for ord := 0; ord < g.NumCells(); ord++ {
		total += g.CellRect(g.Unflatten(ord)).Area()
	}
	if total != g.Domain.Area() {
		t.Errorf("cells area %g != domain area %g", total, g.Domain.Area())
	}
}

func TestGridNeighborhood(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 10), []int{10, 10})
	count := func(idx []int, radius int) int {
		n := 0
		g.Neighborhood(idx, radius, func(int) { n++ })
		return n
	}
	if got := count([]int{5, 5}, 1); got != 9 {
		t.Errorf("interior radius-1 block = %d, want 9", got)
	}
	if got := count([]int{5, 5}, 3); got != 49 {
		t.Errorf("interior radius-3 block = %d, want 49 (Lemma 4.2)", got)
	}
	if got := count([]int{0, 0}, 1); got != 4 {
		t.Errorf("corner radius-1 block = %d, want 4", got)
	}
	if got := count([]int{0, 5}, 1); got != 6 {
		t.Errorf("edge radius-1 block = %d, want 6", got)
	}
}

func TestGridNeighborhoodIncludesSelfAndUnique(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 10), []int{6, 6})
	idx := []int{2, 3}
	self := g.Flatten(idx)
	seen := map[int]bool{}
	g.Neighborhood(idx, 2, func(ord int) {
		if seen[ord] {
			t.Fatalf("duplicate ordinal %d", ord)
		}
		seen[ord] = true
	})
	if !seen[self] {
		t.Error("neighborhood must include the center cell")
	}
}

func TestGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cell count")
		}
	}()
	NewGrid(r2(0, 0, 1, 1), []int{0, 2})
}

package detect

import (
	"testing"

	"dod/internal/geom"
	"dod/internal/synth"
)

// TestScanLoopsAllocFree pins the acceptance criterion that the per-point
// scan loops allocate nothing once their structures are built: the
// Nested-Loop random scan and the Cell-Based block counts must stay at
// 0 allocs/op, and the core-cell list is one allocation.
func TestScanLoopsAllocFree(t *testing.T) {
	set := geom.PointSetOf(synth.Segment(synth.Massachusetts, 2000, 3))
	pool := scanPool(set, 1)
	var stats Stats
	r2 := benchParams.R * benchParams.R

	pi := 0
	if allocs := testing.AllocsPerRun(50, func() {
		randomScan(set, pi, pool, r2, benchParams.K, &stats)
		pi = (pi + 1) % set.Len()
	}); allocs != 0 {
		t.Errorf("randomScan allocates %v per run, want 0", allocs)
	}

	cr := newCellRules(set, benchParams.R, &stats)
	od := geom.NewOdometer(set.Dim)
	cells := cr.coreCells(set.Len())
	ci := 0
	if allocs := testing.AllocsPerRun(50, func() {
		q := cr.centre(cells[ci])
		cr.ix.BlockCount(&od, q, 1)
		cr.ix.BlockCount(&od, q, cr.l2)
		ci = (ci + 1) % len(cells)
	}); allocs != 0 {
		t.Errorf("Cell-Based block counts allocate %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { cr.coreCells(set.Len()) }); allocs != 1 {
		t.Errorf("coreCells allocates %v per run, want 1", allocs)
	}
}

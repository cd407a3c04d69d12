package stream

import (
	"math/rand"
	"testing"

	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/index"
)

// TestApplyOpsAllocs pins a shard's segment apply under an ownership
// predicate, where every neighbourhood walk runs in place on the window's
// scratch: a list of ±1 support steps, and an admission with its eviction,
// each allocate ApplyOps' two result slices and nothing else — the
// admission reuses the slot the last eviction freed.
func TestApplyOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	sw, err := NewShardWindow(ShardConfig{R: 1.2, K: 4, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	owns := OwnsFunc(func(c []int64) bool { return (c[0]>>1+c[1]>>1)&1 == 0 }) // a checkerboard of 2-cell blocks
	rng := rand.New(rand.NewSource(9))
	point := func(id uint64) geom.Point {
		return geom.Point{ID: id, Coords: []float64{rng.Float64() * 20, rng.Float64() * 20}}
	}
	apply := func(ops []ShardOp) {
		_, errsOut := sw.ApplyOps(ops, t0, owns)
		for i, err := range errsOut {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	var fill []ShardOp
	for i := 0; i < 600; i++ {
		fill = append(fill, ShardOp{Kind: OpAdmit, Point: point(uint64(i)), Seq: uint64(i + 1)})
	}
	apply(fill)
	// +1 then -1 for points resident on other shards, over the cells of
	// their neighbourhoods this shard owns: the window ends as it began.
	var support []ShardOp
	sc := index.NewCountScratch()
	for i := 0; i < 20; i++ {
		p := point(uint64(10_000 + i))
		var cells [][]int64
		sc.WalkNeighborhood(sw.ix.CellCoords(p), detect.L2Radius(2), func(c []int64) {
			if owns(c) {
				cells = append(cells, append([]int64(nil), c...))
			}
		})
		support = append(support,
			ShardOp{Kind: OpSupport, Point: p, Cells: cells, Delta: +1},
			ShardOp{Kind: OpSupport, Point: p, Cells: cells, Delta: -1})
	}
	// An admission into a cell another resident keeps occupied, and its
	// eviction.
	q := geom.Point{ID: 20_000, Coords: append([]float64(nil), fill[0].Point.Coords...)}
	cycle := []ShardOp{{Kind: OpAdmit, Point: q, Seq: 601}, {Kind: OpEvict, ID: q.ID}}
	for _, tc := range []struct {
		name string
		ops  []ShardOp
		want float64
	}{
		{"support steps", support, 2},
		{"an admission and its eviction", cycle, 2},
	} {
		if got := testing.AllocsPerRun(50, func() { apply(tc.ops) }); got > tc.want {
			t.Errorf("ApplyOps(%s) allocates %v objects per call, want <= %v", tc.name, got, tc.want)
		}
	}
}

package detect

import (
	"fmt"
	"testing"

	"dod/internal/geom"
	"dod/internal/synth"
)

// Kernel benchmarks: raw detector throughput on fixed workloads, measured
// at the detect layer so allocation behavior of the hot path is visible
// (`-benchmem`). Run `go test -bench . ./internal/detect` before and after
// a kernel change on the same machine; the end-to-end records are the
// bench/ module's.

// benchPoints2D is the shared 2D workload: a Massachusetts-density segment
// (intermediate regime for r=5, k=4 — exercises pruning, ring scans and the
// Nested-Loop fallback, not just one branch).
func benchPoints2D(n int) []geom.Point {
	return synth.Segment(synth.Massachusetts, n, 3)
}

var benchParams = Params{R: 5, K: 4}

func benchDetector(b *testing.B, kind Kind, pts []geom.Point) {
	b.Helper()
	b.ReportAllocs()
	d := New(kind, 7)
	var comps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := d.Detect(pts, nil, benchParams)
		comps = res.Stats.DistComps
	}
	b.ReportMetric(float64(comps), "distcomps")
	if comps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(comps)*float64(b.N)), "ns/comp")
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

func BenchmarkNestedLoop2D(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDetector(b, NestedLoop, benchPoints2D(n))
		})
	}
}

func BenchmarkCellBased2D(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDetector(b, CellBased, benchPoints2D(n))
		})
	}
}

func BenchmarkCellBasedL2_2D(b *testing.B) {
	for _, n := range []int{8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDetector(b, CellBasedL2, benchPoints2D(n))
		})
	}
}

func BenchmarkKDTree2D(b *testing.B) {
	benchDetector(b, KDTree, benchPoints2D(8000))
}

func BenchmarkPivot2D(b *testing.B) {
	benchDetector(b, Pivot, benchPoints2D(2000))
}

// BenchmarkCellBased3D exercises the d=3 unrolled kernel and the 3^3/7^3
// neighborhood blocks.
func BenchmarkCellBased3D(b *testing.B) {
	pts := synth.GaussianCloud(8000, 3, 17)
	benchDetector(b, CellBased, pts)
}

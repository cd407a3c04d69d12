package dod

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"dod/internal/sample"
	"dod/internal/synth"
)

// TestDefaultGridStaysSmall holds the default mini-bucket grid of a
// dod.Detect job to the d = 2 cell count at every dimension: the per-axis
// count the preprocess span reports, raised to d, is at most
// sample.BucketsFor(n, 2)². The outliers must equal the centralized
// answer, and the n = 4 000, d = 7 plan must not hand partitions to
// Cell-Based-L2, whose 13^7-cell ring walk its price now charges. Wall
// time and the plan span are logged (-v), never asserted.
func TestDefaultGridStaysSmall(t *testing.T) {
	type job struct{ n, d int }
	var jobs []job
	for d := 1; d <= 10; d++ {
		jobs = append(jobs, job{4000, d})
	}
	for d := 1; d <= 8; d++ {
		jobs = append(jobs, job{40_000, d})
	}
	for _, j := range jobs {
		name := fmt.Sprintf("n%d/d%d", j.n, j.d)
		pts, _ := synth.HighDimPlanted(j.n, j.d, 4, 0.02, 1)
		start := time.Now()
		res, err := Detect(pts, Config{R: 4, K: 4})
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := res.Report
		pre, ok := rep.Trace.Find("preprocess")
		if !ok {
			t.Fatalf("%s: no preprocess span", name)
		}
		perAxis, err := strconv.Atoi(pre.Attr("buckets_per_dim"))
		if err != nil {
			t.Fatalf("%s: buckets_per_dim %q: %v", name, pre.Attr("buckets_per_dim"), err)
		}
		cells := 1
		for _, b := range sample.DimsFor(j.d, perAxis, sample.MaxCells) {
			cells *= b
		}
		b2 := sample.BucketsFor(j.n, 2)
		if cells > b2*b2 {
			t.Errorf("%s: %d per axis, %d cells, over the d = 2 count %d", name, perAxis, cells, b2*b2)
		}

		want, err := DetectCentralized(pts, NestedLoop, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.OutlierIDs, want) {
			t.Errorf("%s: %d outliers, centralized %d", name, len(res.OutlierIDs), len(want))
		}

		tactics := map[Detector]int{}
		for _, p := range rep.Plan.Partitions {
			tactics[p.Algo]++
		}
		if j.n == 4000 && j.d == 7 && tactics[CellBasedL2] > 0 {
			t.Errorf("%s: %d Cell-Based-L2 partitions, want none", name, tactics[CellBasedL2])
		}
		planSpan, _ := rep.Trace.Find("plan")
		t.Logf("%s: %d per axis, %d cells, %d partitions %v, %d outliers; wall %v, plan span %v",
			name, perAxis, cells, len(rep.Plan.Partitions), tactics, len(res.OutlierIDs),
			wall.Round(time.Microsecond), planSpan.Duration.Round(time.Microsecond))
	}
}

// TestPaperPairChargesCellBasedItsL2Walk runs the paper's candidate pair
// on the n = 4 000, d = 7 planted set. Cell-Based's prune counts the
// points of the 13^7-cell L2 block for every cell its L1 rule leaves open,
// so its price charges that walk as Cell-Based-L2's does, and the plan
// must hand it no partition. The outliers must equal the centralized
// answer.
func TestPaperPairChargesCellBasedItsL2Walk(t *testing.T) {
	pts, _ := synth.HighDimPlanted(4000, 7, 4, 0.02, 1)
	res, err := Detect(pts, Config{R: 4, K: 4, Candidates: []Detector{NestedLoop, CellBased}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Report.Plan.Partitions {
		if p.Algo == CellBased {
			t.Errorf("partition %d of %d goes to Cell-Based", i, len(res.Report.Plan.Partitions))
		}
	}
	want, err := DetectCentralized(pts, NestedLoop, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.OutlierIDs, want) {
		t.Errorf("%d outliers, centralized %d", len(res.OutlierIDs), len(want))
	}
}

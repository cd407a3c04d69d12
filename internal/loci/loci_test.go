package loci

import (
	"math/rand"
	"testing"

	"dod/internal/core"
	"dod/internal/geom"
)

// equalIDs treats nil and empty slices as equal.
func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var testParams = Params{R: 6, Alpha: 0.5, KSigma: 3}

// mixedScene builds the canonical LOCI workload: a dense jittered field
// with two carved-out holes, each holding one lone point. The lone points
// have drastically lower local density than everything in their sampling
// neighborhood — exactly the "multi-granularity deviation" LOCI flags.
func mixedScene(seed int64) (points []geom.Point, plantedIDs []uint64) {
	rng := rand.New(rand.NewSource(seed))
	holes := [][2]float64{{30, 30}, {10, 45}}
	const holeRadius = 5.0
	id := uint64(0)
	for gx := 0; gx < 60; gx++ {
		for gy := 0; gy < 60; gy++ {
			x := float64(gx) + rng.Float64()
			y := float64(gy) + rng.Float64()
			inHole := false
			for _, h := range holes {
				dx, dy := x-h[0], y-h[1]
				if dx*dx+dy*dy < holeRadius*holeRadius {
					inHole = true
					break
				}
			}
			if inHole {
				continue
			}
			points = append(points, geom.Point{ID: id, Coords: []float64{x, y}})
			id++
		}
	}
	for i, h := range holes {
		pid := uint64(90001 + i)
		points = append(points, geom.Point{ID: pid, Coords: []float64{h[0], h[1]}})
		plantedIDs = append(plantedIDs, pid)
	}
	return points, plantedIDs
}

func TestValidate(t *testing.T) {
	if err := testParams.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{R: 0}).Validate(); err == nil {
		t.Error("r=0 accepted")
	}
	if err := (Params{R: 1, Alpha: 2}).Validate(); err == nil {
		t.Error("alpha=2 accepted")
	}
	if err := (Params{R: 1, KSigma: -1}).Validate(); err == nil {
		t.Error("negative kSigma accepted")
	}
}

func TestDefaults(t *testing.T) {
	p := Params{R: 5}.withDefaults()
	if p.Alpha != 0.5 || p.KSigma != 3 {
		t.Errorf("defaults = %+v", p)
	}
	if got := (Params{R: 4}).SupportRadius(); got != 6 {
		t.Errorf("SupportRadius = %g, want 6 (r·(1+α))", got)
	}
}

func TestDetectFlagsLocalDensityDrop(t *testing.T) {
	points, planted := mixedScene(1)
	out, err := Detect(points, testParams)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[uint64]bool{}
	for _, id := range out {
		flagged[id] = true
	}
	for _, id := range planted {
		if !flagged[id] {
			t.Errorf("planted anomaly %d not flagged", id)
		}
	}
	// The vast majority of cluster members must not be flagged.
	if len(out) > len(points)/10 {
		t.Errorf("flagged %d of %d points; too many", len(out), len(points))
	}
}

func TestDetectUniformDataMostlyClean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	out, err := Detect(pts, testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > len(pts)/20 {
		t.Errorf("uniform data: flagged %d of %d", len(out), len(pts))
	}
}

func TestDetectEmpty(t *testing.T) {
	out, err := Detect(nil, testParams)
	if err != nil || len(out) != 0 {
		t.Errorf("empty: %v, %v", out, err)
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	points, _ := mixedScene(1)
	want, err := Detect(points, testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture has no outliers; equivalence test would be vacuous")
	}
	for _, partitions := range []int{4, 16, 49} {
		got, err := DetectDistributed(points, testParams, core.AreaOptions{
			NumPartitions: partitions, NumReducers: 4, Seed: 7,
		})
		if err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
		if !equalIDs(got, want) {
			t.Errorf("partitions=%d: got %v, want %v", partitions, got, want)
		}
	}
}

func TestDistributedRandomizedEquivalence(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		rng := rand.New(rand.NewSource(50 + trial))
		pts, _ := mixedScene(50 + trial)
		// Extra clustered mass so partitions see varied densities.
		for i := 0; i < 300; i++ {
			pts = append(pts, geom.Point{ID: uint64(50000 + i), Coords: []float64{
				30 + rng.NormFloat64()*3, 75 + rng.NormFloat64()*3,
			}})
		}
		want, err := Detect(pts, testParams)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectDistributed(pts, testParams, core.AreaOptions{NumPartitions: 25, NumReducers: 5, Seed: trial})
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, want) {
			t.Errorf("trial %d: distributed %d outliers, centralized %d", trial, len(got), len(want))
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := DetectDistributed(nil, testParams, core.AreaOptions{}); err == nil {
		t.Error("empty dataset accepted")
	}
	pts := []geom.Point{{ID: 1, Coords: []float64{0, 0}}}
	if _, err := DetectDistributed(pts, Params{R: -1}, core.AreaOptions{}); err == nil {
		t.Error("bad params accepted")
	}
}

package dod

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// batchEntries runs each batch entry point on a point set. DetectBatch
// sees the set as a Batch of the first point's dimensionality, with every
// point's coordinates concatenated, so a point of another dimensionality
// makes its coordinate count disagree with Dim×Len.
var batchEntries = []struct {
	name string
	run  func([]Point) error
}{
	{"Detect", func(p []Point) error { _, err := Detect(p, Config{R: 1, K: 1}); return err }},
	{"DetectCentralized", func(p []Point) error { _, err := DetectCentralized(p, CellBased, 1, 1); return err }},
	{"DetectBatch", func(p []Point) error {
		b := &Batch{Dim: p[0].Dim()}
		for _, q := range p {
			b.IDs = append(b.IDs, q.ID)
			b.Coords = append(b.Coords, q.Coords...)
		}
		_, err := DetectBatch(b, CellBased, 1, 1)
		return err
	}},
	{"DBSCAN", func(p []Point) error { _, err := DBSCAN(p, DBSCANConfig{Eps: 1, MinPts: 2}); return err }},
	{"LOCI", func(p []Point) error { _, err := LOCI(p, LOCIConfig{R: 1}); return err }},
	{"KNNOutliers", func(p []Point) error { _, err := KNNOutliers(p, KNNConfig{K: 1, N: 3}); return err }},
}

// shuffledPoints returns n 2-D points whose IDs are 1..n in a seeded
// random order.
func shuffledPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i, id := range rng.Perm(n) {
		pts[i] = Point{ID: uint64(id + 1), Coords: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	return pts
}

// wantDuplicate checks err is a *DuplicateIDError naming id.
func wantDuplicate(id uint64) func(error) error {
	return func(err error) error {
		var dup *DuplicateIDError
		if !errors.Is(err, ErrDuplicateID) || !errors.As(err, &dup) || dup.ID != id {
			return fmt.Errorf("err = %v, want DuplicateIDError{ID: %d}", err, id)
		}
		return nil
	}
}

// wantDimMismatch checks err is a *DimMismatchError equal to want.
func wantDimMismatch(want DimMismatchError) func(error) error {
	return func(err error) error {
		var dm *DimMismatchError
		if !errors.Is(err, ErrDimMismatch) || !errors.As(err, &dm) || *dm != want {
			return fmt.Errorf("err = %v, want DimMismatchError%+v", err, want)
		}
		return nil
	}
}

// wantBadParams checks err matches ErrBadParams and no other sentinel.
func wantBadParams(err error) error {
	if !errors.Is(err, ErrBadParams) || errors.Is(err, ErrDuplicateID) || errors.Is(err, ErrDimMismatch) {
		return fmt.Errorf("err = %v, want ErrBadParams", err)
	}
	return nil
}

// TestBatchValidationErrors runs every batch entry point on inputs with
// one fault each and pins the error's type and the ID it names: a repeat
// at the end of a shuffled 10 000-point set, a repeat in the first two
// points, a point of another dimensionality and zero-dimensional points.
// DetectBatch holds one Dim for the whole batch, so there the mixed
// dimensionality is a coordinate count that disagrees with Dim×Len.
func TestBatchValidationErrors(t *testing.T) {
	tailRepeat := shuffledPoints(10000, 1)
	repeated := tailRepeat[4321].ID
	tailRepeat = append(tailRepeat, Point{ID: repeated, Coords: []float64{50, 50}})

	headRepeat := shuffledPoints(10000, 2)
	headRepeat[1].ID = headRepeat[0].ID

	mixed := shuffledPoints(10000, 3)
	odd := mixed[7000].ID
	mixed[7000].Coords = []float64{1, 2, 3}

	flat := shuffledPoints(50, 4)
	for i := range flat {
		flat[i].Coords = []float64{}
	}

	cases := []struct {
		name   string
		points []Point
		want   func(error) error
		batch  func(error) error // DetectBatch's answer, when it differs
	}{
		{"repeat at the end of a shuffled set", tailRepeat, wantDuplicate(repeated), nil},
		{"repeat in the first two points", headRepeat, wantDuplicate(headRepeat[0].ID), nil},
		{"mixed dimensionality", mixed, wantDimMismatch(DimMismatchError{ID: odd, Got: 3, Want: 2}), wantBadParams},
		{"zero dimensions", flat, wantBadParams, nil},
	}
	for _, c := range cases {
		for _, e := range batchEntries {
			want := c.want
			if e.name == "DetectBatch" && c.batch != nil {
				want = c.batch
			}
			if err := want(e.run(c.points)); err != nil {
				t.Errorf("%s, %s: %v", e.name, c.name, err)
			}
		}
	}
}

// TestBatchValidationMultiFault pins the rule for inputs with several
// faults: dimension faults are reported before any repeat, and of several
// repeated IDs the smallest is reported, wherever each fault sits.
func TestBatchValidationMultiFault(t *testing.T) {
	repeats := shuffledPoints(3000, 5)
	first, second := repeats[10].ID, repeats[2000].ID // repeated early and late
	repeats[11].ID = max(first, second)
	repeats[2999].ID = min(first, second)
	smallest := min(first, second)

	both := append([]Point(nil), repeats...)
	odd := both[2500].ID
	both[2500].Coords = []float64{7}

	cases := []struct {
		name   string
		points []Point
		want   func(error) error
		batch  func(error) error
	}{
		{"two repeats, the larger first", repeats, wantDuplicate(smallest), nil},
		{"repeats before a mixed dimensionality", both, wantDimMismatch(DimMismatchError{ID: odd, Got: 1, Want: 2}), wantBadParams},
	}
	for _, c := range cases {
		for _, e := range batchEntries {
			want := c.want
			if e.name == "DetectBatch" && c.batch != nil {
				want = c.batch
			}
			if err := want(e.run(c.points)); err != nil {
				t.Errorf("%s, %s: %v", e.name, c.name, err)
			}
		}
	}
}

// TestDuplicateCheckAllocs: the repeat check copies the IDs once and
// builds no set.
func TestDuplicateCheckAllocs(t *testing.T) {
	pts := shuffledPoints(10000, 6)
	if allocs := testing.AllocsPerRun(10, func() { _ = checkPoints(pts) }); allocs != 1 {
		t.Errorf("checkPoints made %.0f allocations, want 1", allocs)
	}
	b, err := BatchOf(pts)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = b.validate() }); allocs != 1 {
		t.Errorf("Batch.validate made %.0f allocations, want 1", allocs)
	}
}

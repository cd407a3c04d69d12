package dod

import (
	"errors"
	"fmt"
	"testing"
)

func TestErrEmptyDataset(t *testing.T) {
	_, err := Detect(nil, Config{R: 5, K: 4})
	if !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("Detect(nil) = %v, want ErrEmptyDataset", err)
	}
	if _, err := DetectCentralized(nil, CellBased, 5, 4); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("DetectCentralized(nil) = %v, want ErrEmptyDataset", err)
	}
}

func TestErrDuplicateID(t *testing.T) {
	pts := []Point{
		{ID: 7, Coords: []float64{0, 0}},
		{ID: 7, Coords: []float64{1, 1}},
	}
	_, err := Detect(pts, Config{R: 5, K: 4})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
	var dup *DuplicateIDError
	if !errors.As(err, &dup) {
		t.Fatalf("err = %v, want *DuplicateIDError", err)
	}
	if dup.ID != 7 {
		t.Errorf("DuplicateIDError.ID = %d, want 7", dup.ID)
	}
}

func TestErrBadParams(t *testing.T) {
	pts := testDataset(100, 1)
	cases := map[string]error{}
	_, cases["zero r"] = Detect(pts, Config{R: 0, K: 4})
	_, cases["negative r"] = Detect(pts, Config{R: -1, K: 4})
	_, cases["zero k"] = Detect(pts, Config{R: 5, K: 0})
	_, cases["unknown detector"] = ParseDetector("nope")
	_, cases["unknown strategy"] = ParseStrategy("nope")
	_, cases["bad stream config"] = NewStreamDetector(StreamConfig{R: 5, K: 4, Dim: 2})
	for name, err := range cases {
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: err = %v, want ErrBadParams", name, err)
		}
	}
}

// TestClusterSentinelsExported pins the distributed-runtime sentinels to
// the public API: wrapped internal errors must satisfy errors.Is against
// the dod.Err* re-exports.
func TestClusterSentinelsExported(t *testing.T) {
	if ErrWorkerLost == nil || ErrJobAborted == nil {
		t.Fatal("cluster sentinels are nil")
	}
	if errors.Is(ErrWorkerLost, ErrJobAborted) {
		t.Error("ErrWorkerLost and ErrJobAborted must be distinct")
	}
	wrapped := fmt.Errorf("dist: map task 3: %w after 8 dispatches", ErrWorkerLost)
	if !errors.Is(wrapped, ErrWorkerLost) {
		t.Errorf("wrapped worker-lost error not matched: %v", wrapped)
	}
}

func TestStreamErrDimMismatch(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{R: 5, K: 4, Dim: 2, WindowCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, err = d.Process(Point{ID: 1, Coords: []float64{1, 2, 3}})
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v, want ErrDimMismatch", err)
	}
	var dim *DimMismatchError
	if !errors.As(err, &dim) {
		t.Fatalf("err = %v, want *DimMismatchError", err)
	}
	if dim.ID != 1 || dim.Got != 3 || dim.Want != 2 {
		t.Errorf("DimMismatchError = %+v, want {ID:1 Got:3 Want:2}", dim)
	}
	if _, err := d.Score(Point{ID: 2, Coords: []float64{1}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Score err = %v, want ErrDimMismatch", err)
	}
}

func TestStreamErrDuplicateID(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{R: 5, K: 4, Dim: 2, WindowCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Process(Point{ID: 3, Coords: []float64{0, 0}}); err != nil {
		t.Fatal(err)
	}
	_, err = d.Process(Point{ID: 3, Coords: []float64{1, 1}})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
	var dup *DuplicateIDError
	if !errors.As(err, &dup) || dup.ID != 3 {
		t.Fatalf("err = %v, want *DuplicateIDError with ID 3", err)
	}
}

func TestStreamDetectorClose(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{R: 5, K: 4, Dim: 2, WindowCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Process(Point{ID: 1, Coords: []float64{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := d.Process(Point{ID: 2, Coords: []float64{1, 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Process after Close = %v, want ErrClosed", err)
	}
	if _, err := d.Score(Point{ID: 2, Coords: []float64{1, 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Score after Close = %v, want ErrClosed", err)
	}
	// Inspection still works on a closed detector.
	if snap := d.Snapshot(); len(snap.Points) != 1 {
		t.Errorf("Snapshot after Close: %d points, want 1", len(snap.Points))
	}
	if st := d.Stats(); st.Ingested != 1 {
		t.Errorf("Stats after Close: Ingested = %d, want 1", st.Ingested)
	}
}

// TestMalformedPointsRejected runs every batch entry point on point sets
// of mixed dimensionality, of zero dimensions and with a repeated ID. Each
// returns the shared check's typed error rather than panicking or ranking
// one ID twice.
func TestMalformedPointsRejected(t *testing.T) {
	entries := map[string]func([]Point) error{
		"Detect": func(p []Point) error { _, err := Detect(p, Config{R: 1, K: 1}); return err },
		"DetectCentralized": func(p []Point) error {
			_, err := DetectCentralized(p, CellBased, 1, 1)
			return err
		},
		"DBSCAN": func(p []Point) error { _, err := DBSCAN(p, DBSCANConfig{Eps: 1, MinPts: 2}); return err },
		"DBSCANCentralized": func(p []Point) error {
			_, err := DBSCANCentralized(p, 1, 2)
			return err
		},
		"LOCI": func(p []Point) error { _, err := LOCI(p, LOCIConfig{R: 1}); return err },
		"LOCICentralized": func(p []Point) error {
			_, err := LOCICentralized(p, 1, 0.5, 3)
			return err
		},
		"KNNOutliers": func(p []Point) error { _, err := KNNOutliers(p, KNNConfig{K: 1, N: 3}); return err },
		"KNNOutliersCentralized": func(p []Point) error {
			_, err := KNNOutliersCentralized(p, 1, 3)
			return err
		},
	}
	grid := func(n, dim int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			c := make([]float64, dim)
			for j := range c {
				c[j] = float64((i + j) % 3)
			}
			pts[i] = Point{ID: uint64(i + 1), Coords: c}
		}
		return pts
	}
	mixed := append(grid(6, 2), Point{ID: 99, Coords: []float64{0, 1, 2}})
	duplicate := append(grid(6, 2), Point{ID: 3, Coords: []float64{5, 5}})
	for name, run := range entries {
		err := run(mixed)
		var dm *DimMismatchError
		if !errors.Is(err, ErrDimMismatch) || !errors.As(err, &dm) || *dm != (DimMismatchError{ID: 99, Got: 3, Want: 2}) {
			t.Errorf("%s, mixed dimensionality: err = %v, want DimMismatchError{ID: 99, Got: 3, Want: 2}", name, err)
		}
		if err := run(grid(6, 0)); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s, zero-dimensional points: err = %v, want ErrBadParams", name, err)
		}
		err = run(duplicate)
		var dup *DuplicateIDError
		if !errors.Is(err, ErrDuplicateID) || !errors.As(err, &dup) || dup.ID != 3 {
			t.Errorf("%s, repeated ID: err = %v, want DuplicateIDError{ID: 3}", name, err)
		}
	}
}

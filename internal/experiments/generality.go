package experiments

import (
	"fmt"
	"time"

	"dod/internal/core"
	"dod/internal/dbscan"
	"dod/internal/knn"
	"dod/internal/loci"
	"dod/internal/synth"
)

// Generality exercises the Sec. III-B claim that the supporting-area
// framework generalizes beyond distance-threshold outliers: it runs
// DBSCAN, LOCI, and exact top-n kNN outlier detection both centralized and
// distributed on the same MA-like dataset, reports wall-clock for each,
// and verifies the distributed results match the centralized ones. This
// experiment has no counterpart figure in the paper; it validates the
// claim the paper states without evaluating.
func Generality(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	pts := synth.Segment(synth.Massachusetts, cfg.SegmentN, cfg.Seed+500)
	opts := core.AreaOptions{NumPartitions: cfg.Partitions, NumReducers: cfg.Reducers, Seed: cfg.Seed}

	fig := &Figure{
		ID:     "Generality",
		Title:  "Sec. III-B adaptations: centralized vs distributed wall-clock",
		XLabel: "mode",
		YLabel: "wall-clock seconds (local machine)",
	}

	timed := func(fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		return time.Since(start).Seconds(), err
	}

	// DBSCAN.
	var centralClusters, distClusters int
	cSec, err := timed(func() error {
		res, err := dbscan.Cluster(pts, dbscan.Params{Eps: 5, MinPts: 4})
		centralClusters = res.NumClusters
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dbscan centralized: %w", err)
	}
	dSec, err := timed(func() error {
		res, err := dbscan.ClusterDistributed(pts, dbscan.Params{Eps: 5, MinPts: 4}, opts)
		if err == nil {
			distClusters = res.NumClusters
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dbscan distributed: %w", err)
	}
	fig.Series = append(fig.Series, Series{Label: "DBSCAN", Points: []Point{
		{X: "centralized", Y: cSec}, {X: "distributed", Y: dSec},
	}})
	if centralClusters != distClusters {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"WARNING: DBSCAN cluster counts diverge (%d vs %d)", centralClusters, distClusters))
	}

	// LOCI.
	var centralLOCI, distLOCI []uint64
	lociParams := loci.Params{R: 6}
	cSec, err = timed(func() error {
		centralLOCI, err = loci.Detect(pts, lociParams)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("loci centralized: %w", err)
	}
	dSec, err = timed(func() error {
		distLOCI, err = loci.DetectDistributed(pts, lociParams, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("loci distributed: %w", err)
	}
	fig.Series = append(fig.Series, Series{Label: "LOCI", Points: []Point{
		{X: "centralized", Y: cSec}, {X: "distributed", Y: dSec},
	}})
	if !sameIDs(centralLOCI, distLOCI) {
		fig.Notes = append(fig.Notes, "WARNING: LOCI outlier sets diverge")
	}

	// kNN top-n.
	var centralKNN, distKNN []knn.Outlier
	knnParams := knn.Params{K: 5, N: 10}
	cSec, err = timed(func() error {
		centralKNN, err = knn.TopN(pts, knnParams)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("knn centralized: %w", err)
	}
	dSec, err = timed(func() error {
		distKNN, err = knn.TopNDistributed(pts, knnParams, 0, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("knn distributed: %w", err)
	}
	fig.Series = append(fig.Series, Series{Label: "kNN top-n", Points: []Point{
		{X: "centralized", Y: cSec}, {X: "distributed", Y: dSec},
	}})
	if !sameRanking(centralKNN, distKNN) {
		fig.Notes = append(fig.Notes, "WARNING: kNN rankings diverge")
	}

	if len(fig.Notes) == 0 {
		fig.Notes = append(fig.Notes,
			"all three distributed results verified identical to their centralized twins")
	}
	return fig, nil
}

func sameIDs(a, b []uint64) bool {
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

func sameRanking(a, b []knn.Outlier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

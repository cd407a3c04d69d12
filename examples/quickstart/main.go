// Quickstart: detect distance-threshold outliers in a small 2-D dataset.
//
// A point is an outlier iff it has fewer than K neighbors within distance R
// (Knorr & Ng's definition, Def. 2.2 of the paper). We build two clusters
// of inliers, plant three isolated points, and let the full multi-tactic
// pipeline find them.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dod"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// Two Gaussian clusters of ordinary points...
	var points []dod.Point
	id := uint64(0)
	addCluster := func(cx, cy float64, n int) {
		for i := 0; i < n; i++ {
			points = append(points, dod.Point{
				ID:     id,
				Coords: []float64{cx + rng.NormFloat64()*2, cy + rng.NormFloat64()*2},
			})
			id++
		}
	}
	addCluster(20, 20, 400)
	addCluster(60, 50, 300)

	// ...and three isolated anomalies.
	for _, c := range [][]float64{{5, 70}, {90, 10}, {85, 85}} {
		points = append(points, dod.Point{ID: id, Coords: c})
		id++
	}

	// Detect with R=4, K=3: an outlier has fewer than 3 neighbors within
	// distance 4. Everything else is defaulted: DMT partitioning, the
	// {Nested-Loop, Cell-Based-L2} candidate set (the paper's is
	// {Nested-Loop, Cell-Based}), 8 reducers.
	result, err := dod.Detect(points, dod.Config{R: 4, K: 3, SampleRate: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dataset: %d points\n", len(points))
	fmt.Printf("outliers (%d):\n", len(result.OutlierIDs))
	for _, oid := range result.OutlierIDs {
		p := points[oid] // IDs were assigned densely in insertion order
		fmt.Printf("  point %d at (%.1f, %.1f)\n", oid, p.Coords[0], p.Coords[1])
	}

	rep := result.Report
	fmt.Printf("\nexecution: %d MapReduce job(s), %d partitions, %d support records\n",
		rep.NumJobs, len(rep.Plan.Partitions), rep.SupportRecords)
	fmt.Printf("simulated 40-node cluster time: %v (reduce imbalance %.2f)\n",
		rep.Simulated.Total(), rep.ReduceImbalance)
}

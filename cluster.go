package dod

import (
	"dod/internal/core"
	"dod/internal/dbscan"
	"dod/internal/knn"
	"dod/internal/loci"
)

// DBSCANResult maps each input point ID to a cluster label (0-based) or
// DBSCANNoise.
type DBSCANResult = dbscan.Result

// DBSCANNoise is the label of unclustered points.
const DBSCANNoise = dbscan.Noise

// DBSCANConfig controls distributed density-based clustering.
type DBSCANConfig struct {
	// Eps is the neighborhood radius.
	Eps float64
	// MinPts is the minimum neighborhood size (including the point itself)
	// for a core point.
	MinPts int
	// NumPartitions is the uniSpace grid size; default 16.
	NumPartitions int
	// NumReducers is the reduce-task count; default 4.
	NumReducers int
	// Parallelism bounds concurrent task goroutines; default GOMAXPROCS.
	Parallelism int
	// Seed drives the engine; runs are reproducible.
	Seed int64
}

// DBSCAN clusters points with density-based clustering on the same
// supporting-area MapReduce framework as outlier detection — the
// adaptation the paper describes in Sec. III-B. Results match centralized
// DBSCAN up to cluster renumbering and the standard border-point
// ambiguity.
func DBSCAN(points []Point, cfg DBSCANConfig) (*DBSCANResult, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	return dbscan.ClusterDistributed(points, dbscan.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
		core.AreaOptions{NumPartitions: cfg.NumPartitions, NumReducers: cfg.NumReducers, Parallelism: cfg.Parallelism, Seed: cfg.Seed})
}

// DBSCANCentralized clusters points on a single machine.
func DBSCANCentralized(points []Point, eps float64, minPts int) (*DBSCANResult, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	return dbscan.Cluster(points, dbscan.Params{Eps: eps, MinPts: minPts})
}

// LOCIConfig controls distributed LOCI outlier detection.
type LOCIConfig struct {
	// R is the sampling-neighborhood radius.
	R float64
	// Alpha is the counting-radius factor in (0, 1]; default 0.5.
	Alpha float64
	// KSigma is the deviation threshold; default 3.
	KSigma float64
	// NumPartitions is the uniSpace grid size; default 16.
	NumPartitions int
	// NumReducers is the reduce-task count; default 4.
	NumReducers int
	// Parallelism bounds concurrent task goroutines; default GOMAXPROCS.
	Parallelism int
	// Seed drives the engine; runs are reproducible.
	Seed int64
}

// LOCI detects multi-granularity density anomalies (Papadimitriou et al.)
// on the supporting-area MapReduce framework — the second adaptation the
// paper describes in Sec. III-B. A point is flagged when its local density
// sits more than KSigma deviations below its neighborhood's typical local
// density. Returns sorted outlier IDs, identical to LOCICentralized.
func LOCI(points []Point, cfg LOCIConfig) ([]uint64, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	return loci.DetectDistributed(points, loci.Params{R: cfg.R, Alpha: cfg.Alpha, KSigma: cfg.KSigma},
		core.AreaOptions{NumPartitions: cfg.NumPartitions, NumReducers: cfg.NumReducers, Parallelism: cfg.Parallelism, Seed: cfg.Seed})
}

// LOCICentralized runs the LOCI test on a single machine.
func LOCICentralized(points []Point, r, alpha, kSigma float64) ([]uint64, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	return loci.Detect(points, loci.Params{R: r, Alpha: alpha, KSigma: kSigma})
}

// KNNOutlier is one ranked kNN outlier: a point and the distance to its
// k-th nearest neighbor.
type KNNOutlier = knn.Outlier

// KNNConfig controls distributed top-n kNN outlier detection.
type KNNConfig struct {
	// K selects which nearest neighbor's distance ranks a point.
	K int
	// N is how many top outliers to report.
	N int
	// SupportRadius tunes round-1 replication; zero auto-tunes.
	SupportRadius float64
	// NumPartitions is the uniSpace grid size; default 16.
	NumPartitions int
	// NumReducers is the reduce-task count; default 4.
	NumReducers int
	// Parallelism bounds concurrent task goroutines; default GOMAXPROCS.
	Parallelism int
	// Seed drives the engine; runs are reproducible.
	Seed int64
}

// KNNOutliers computes the exact top-N points by distance to their K-th
// nearest neighbor (Ramaswamy et al.'s outlier semantics — the definition
// the paper's message-passing related work distributes) using a two-round
// supporting-area MapReduce algorithm. Results are ranked by descending
// distance, ties by ascending ID, and match KNNOutliersCentralized exactly.
func KNNOutliers(points []Point, cfg KNNConfig) ([]KNNOutlier, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	return knn.TopNDistributed(points, knn.Params{K: cfg.K, N: cfg.N}, cfg.SupportRadius,
		core.AreaOptions{NumPartitions: cfg.NumPartitions, NumReducers: cfg.NumReducers, Parallelism: cfg.Parallelism, Seed: cfg.Seed})
}

// KNNOutliersCentralized ranks the top-n kNN outliers on a single machine.
func KNNOutliersCentralized(points []Point, k, n int) ([]KNNOutlier, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	return knn.TopN(points, knn.Params{K: k, N: n})
}

// Package cost implements the paper's theoretical cost models for the
// detector classes (Lemma 4.1 and Lemma 4.2) and the density-driven
// algorithm selector (Corollary 4.3). These models are the foundation of
// the multi-tactic strategy: CDriven and DMT partitioning balance reducers
// by *modeled cost* rather than cardinality, and DMT picks each partition's
// detector by comparing the models.
package cost

import (
	"fmt"
	"math"

	"dod/internal/detect"
	"dod/internal/pgraph"
	"dod/internal/ssample"
)

// PartitionProfile is the statistical summary of a data partition the cost
// models consume: cardinality, the volume of domain space it covers, and
// dimensionality.
type PartitionProfile struct {
	Cardinality float64 // |D|; fractional values arise from scaled samples
	Area        float64 // A(D), the d-dimensional volume covered
	Dim         int
}

// Density returns the partition's density measure: cardinality per unit of
// domain volume (the "ratio of data cardinality to the domain area" of
// Sec. IV-A). Degenerate rects (zero area around a single point or a
// coordinate-aligned sliver) return MaxFloat64 rather than +Inf: the models
// multiply density by vanishing cell volumes, and Inf·0 = NaN would poison
// every downstream cost comparison, whereas MaxFloat64·0 = 0 keeps the
// pricing total. An empty degenerate rect has density 0.
func (p PartitionProfile) Density() float64 {
	if p.Area <= 0 {
		if p.Cardinality == 0 {
			return 0
		}
		return math.MaxFloat64
	}
	return p.Cardinality / p.Area
}

// Validate reports whether a profile is usable.
func (p PartitionProfile) Validate() error {
	if p.Cardinality < 0 {
		return fmt.Errorf("cost: negative cardinality %g", p.Cardinality)
	}
	if p.Area < 0 {
		return fmt.Errorf("cost: negative area %g", p.Area)
	}
	if p.Dim < 1 {
		return fmt.Errorf("cost: dimension %d < 1", p.Dim)
	}
	return nil
}

// NestedLoop returns Lemma 4.1's cost of the random-scan Nested-Loop
// detector on the partition:
//
//	Cost(D) = |D| · A(D) · k / A(p)
//
// where A(p) is the volume of the r-ball. The expected trials per point,
// k/μ with μ = A(p)/A(D), is capped at |D| because a scan cannot examine
// more candidates than exist.
func NestedLoop(p PartitionProfile, params detect.Params) float64 {
	perPoint := expectedTrials(p, params)
	if perPoint > p.Cardinality {
		perPoint = p.Cardinality
	}
	return p.Cardinality * perPoint
}

// expectedTrials returns E(N) = k/μ, the Binomial-expectation argument in
// the proof of Lemma 4.1.
func expectedTrials(p PartitionProfile, params detect.Params) float64 {
	ballVol := ballVolume(p.Dim, params.R)
	if p.Area <= 0 {
		// Degenerate domain: everything is within r of everything; k trials
		// suffice.
		return float64(params.K)
	}
	mu := ballVol / p.Area
	if mu > 1 {
		mu = 1
	}
	if mu == 0 {
		return math.Inf(1)
	}
	return float64(params.K) / mu
}

// CellCaseKind names which branch of Lemma 4.2 applies to a partition.
type CellCaseKind int

// The three regimes of Lemma 4.2.
const (
	CaseDenseInlier   CellCaseKind = iota // Eq. (1): 9/8·r²·density ≥ k
	CaseSparseOutlier                     // Eq. (2): 49/8·r²·density < k
	CaseIntermediate                      // Eq. (3): indexing + Nested-Loop
)

// String names the case.
func (c CellCaseKind) String() string {
	switch c {
	case CaseDenseInlier:
		return "dense-inlier"
	case CaseSparseOutlier:
		return "sparse-outlier"
	case CaseIntermediate:
		return "intermediate"
	default:
		return fmt.Sprintf("CellCaseKind(%d)", int(c))
	}
}

// BlockSide is the side, in cells, of the L2 block around a cell: out to
// detect.L2Radius, 2⌈2√d⌉+1 cells, generalizing the paper's
// two-dimensional 49-cell block. Both grid tactics walk it for every cell
// their L1 rule leaves open: Cell-Based-L2 scans its ring, and both
// tactics' prune counts its points (CellIndex.BlockCount).
func BlockSide(dim int) int {
	return 2*detect.L2Radius(dim) + 1
}

// BlockVolumes returns the volumes of the L1 block (3^d cells, the paper's
// 9-cell block in two dimensions) and the L2 block (BlockSide^d cells)
// around a cell, each cell of volume (r/(2√d))^d.
func BlockVolumes(dim int, r float64) (l1, l2 float64) {
	cellVol := math.Pow(detect.CellSide(dim, r), float64(dim))
	d := float64(dim)
	return math.Pow(3, d) * cellVol, math.Pow(float64(BlockSide(dim)), d) * cellVol
}

// cellCase classifies the partition into a Lemma 4.2 regime.
func cellCase(p PartitionProfile, params detect.Params) CellCaseKind {
	density := p.Density()
	l1, l2 := BlockVolumes(p.Dim, params.R)
	switch {
	case l1*density >= float64(params.K):
		return CaseDenseInlier
	case l2*density < float64(params.K):
		return CaseSparseOutlier
	default:
		return CaseIntermediate
	}
}

// regimeCuts returns the density thresholds separating Lemma 4.2's three
// regimes for the given dimensionality and parameters: densities below
// sparseCut are in the sparse-outlier regime, at or above denseCut in the
// dense-inlier regime, and in between in the intermediate regime.
func regimeCuts(dim int, params detect.Params) (sparseCut, denseCut float64) {
	l1, l2 := BlockVolumes(dim, params.R)
	return float64(params.K) / l2, float64(params.K) / l1
}

// RegimeClass maps a density to a small integer class aligned with the
// Corollary 4.3 regimes: 0 = empty, 1 = sparse-outlier, 2 = intermediate,
// 3 = dense-inlier. Partitions built from same-class regions are served by
// one detector, which is what makes the classes the natural
// density-similarity notion for DSHC.
func RegimeClass(dim int, params detect.Params) func(density float64) int {
	sparseCut, denseCut := regimeCuts(dim, params)
	return func(density float64) int {
		switch {
		case density == 0:
			return 0
		case density < sparseCut:
			return 1
		case density < denseCut:
			return 2
		default:
			return 3
		}
	}
}

// CellBased returns Lemma 4.2's cost of the Cell-Based detector: linear
// |D| in the dense-inlier and sparse-outlier regimes, |D| plus the
// Nested-Loop term in between.
func CellBased(p PartitionProfile, params detect.Params) float64 {
	switch cellCase(p, params) {
	case CaseDenseInlier, CaseSparseOutlier:
		return p.Cardinality
	default:
		return p.Cardinality + NestedLoop(p, params)
	}
}

// CellBasedL2 models the extension detector that restricts undecided-cell
// scans to the L1–L2 ring: the linear indexing term plus, in the
// intermediate regime, a per-point scan bounded by the expected ring
// population rather than the full Nested-Loop trial count.
func CellBasedL2(p PartitionProfile, params detect.Params) float64 {
	if cellCase(p, params) != CaseIntermediate {
		return p.Cardinality
	}
	_, l2 := BlockVolumes(p.Dim, params.R)
	ringPoints := l2 * p.Density()
	perPoint := expectedTrials(p, params)
	if ringPoints < perPoint {
		perPoint = ringPoints
	}
	if perPoint > p.Cardinality {
		perPoint = p.Cardinality
	}
	return p.Cardinality * (1 + perPoint)
}

// PerPointTrials returns the expected Nested-Loop trials for a point whose
// *local* density is localDensity when scanning a candidate pool of
// poolCount points: k/μ with μ = expected neighbors / pool size, capped at
// the pool size. This refines Lemma 4.1 to mixed-density partitions, where
// a point in a sparse corner of a mostly-dense partition scans nearly the
// whole pool.
func PerPointTrials(localDensity, poolCount float64, dim int, params detect.Params) float64 {
	if poolCount <= 0 {
		return 0
	}
	neighbors := localDensity * ballVolume(dim, params.R)
	// Negated comparison also catches NaN (e.g. MaxFloat64 density times a
	// denormal-flushed cell volume): treat any non-positive or undefined
	// neighbor expectation as "scan the pool".
	if !(neighbors > 0) {
		return poolCount
	}
	trials := float64(params.K) * poolCount / neighbors
	if trials > poolCount {
		trials = poolCount
	}
	return trials
}

// ballVolume is the volume of the d-ball of radius r (π·r² when d = 2,
// matching the π·r² of Lemma 4.2's Equation (3)).
func ballVolume(d int, r float64) float64 {
	return math.Pow(math.Pi, float64(d)/2) / math.Gamma(float64(d)/2+1) * math.Pow(r, float64(d))
}

// GridEnumExcess is the per-point neighborhood-enumeration overhead the
// grid detectors pay in high dimension: an undecided cell's L2 block walk
// steps through BlockSide^d cell ordinals whether or not the cells hold
// data, in both tactics (see BlockSide). In low dimension that walk is
// negligible next to the point scans (and Lemma 4.2 rightly ignores it),
// so the penalty is structurally zero while BlockSide^d stays within
// max(pool, 3^6), which holds through d = 3 (7², 9³ ≤ 729); past that the
// odometer itself dominates, growing exponentially until the grid tactics
// price themselves out — which is exactly what happens when they run. The
// floor and the /8 are uncalibrated.
func GridEnumExcess(dim int, poolCount float64) float64 {
	block := math.Pow(float64(BlockSide(dim)), float64(dim))
	floor := poolCount
	if floor < 729 { // 3^6
		floor = 729
	}
	if block <= floor {
		return 0
	}
	return (block - floor) / 8
}

// KDPerQuery models one KD-Tree range-count against a pool of n points:
// logarithmic in low dimension but degrading by 2^(d-6) as the curse of
// dimensionality forces the backtracking search toward a full traversal,
// capped at the pool size (a traversal cannot visit more points than
// exist).
func KDPerQuery(n float64, dim int, params detect.Params) float64 {
	if n < 2 {
		return 1
	}
	per := math.Log2(n) * float64(params.K)
	if dim > 6 {
		per *= math.Pow(2, float64(dim-6))
	}
	if per > n {
		per = n
	}
	return per
}

// GraphBuildPerPoint is the modeled per-point construction cost of the
// proximity graph, in units of distance computations: one EfBuild-beam
// search plus the overflow re-selection that diversity pruning performs
// on reverse links. The ×5 factor over the beam's nominal EfBuild·Degree
// expansions is calibrated against measured build counters on clustered
// and sphere workloads (≈430–480 comps/point at the current constants).
const GraphBuildPerPoint = float64(pgraph.EfBuild * pgraph.Degree * 5)

// ExpectedNeighbors is the mean neighbor count at radius r of a point in
// a region of the given density — density times the r-ball volume. In
// high dimension the ball volume underflows any realistic density;
// callers holding an empirical neighbor statistic (sample.Histogram's
// AvgNeighbors) should prefer it when larger.
func ExpectedNeighbors(density float64, dim int, r float64) float64 {
	return density * ballVolume(dim, r)
}

// ProxGraphPerPoint prices the proximity-graph tactic for one point with
// expected neighbor count lambda in a pool of poolCount points:
// amortized construction, a certification walk that stops after ~k
// verified neighbors plus adjacency overhead, and — for the fraction of
// points the walk cannot certify, vanishing as lambda outgrows k — the
// full verified fallback scan.
func ProxGraphPerPoint(lambda, poolCount float64, params detect.Params) float64 {
	walk := float64(params.K + pgraph.Degree)
	frac := 1.0
	if lambda > 0 { // negated form would hide a NaN lambda; frac stays 1 then
		frac = math.Exp(-lambda / (2 * float64(params.K)))
	}
	return GraphBuildPerPoint + walk + frac*poolCount
}

// ProxGraph returns the modeled cost of the proximity-graph tactic
// (internal/pgraph) on a uniform partition. The density-based lambda
// underflows in high dimension; mixed-cost pricing substitutes the
// histogram's empirical neighbor statistic there.
func ProxGraph(p PartitionProfile, params detect.Params) float64 {
	n := p.Cardinality
	if n < 2 {
		return n
	}
	lambda := ExpectedNeighbors(p.Density(), p.Dim, params.R)
	return n * ProxGraphPerPoint(lambda, n, params)
}

// SensSample returns the modeled cost of the sensitivity-sampling tactic
// (internal/ssample): every pool point is scanned against the uniform
// pilot, then every core point against the m weighted draws — linear in
// the pool either way.
func SensSample(p PartitionProfile, params detect.Params) float64 {
	n := p.Cardinality
	if n < 1 {
		return 0
	}
	pilot := float64(ssample.PilotSize)
	if n < pilot {
		pilot = n
	}
	m := float64(ssample.SampleSize(int(math.Ceil(n)), ssample.DefaultEps, ssample.DefaultDelta))
	return n * (pilot + m)
}

// Estimate returns the modeled cost of running the given detector kind on
// the partition. BruteForce is modeled as the full quadratic scan; KDTree
// as index build plus logarithmic queries.
func Estimate(kind detect.Kind, p PartitionProfile, params detect.Params) float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	switch kind {
	case detect.NestedLoop:
		return NestedLoop(p, params)
	case detect.CellBased:
		return CellBased(p, params) + p.Cardinality*GridEnumExcess(p.Dim, p.Cardinality)
	case detect.BruteForce:
		return p.Cardinality * p.Cardinality
	case detect.KDTree:
		n := p.Cardinality
		if n < 2 {
			return n
		}
		return n * KDPerQuery(n, p.Dim, params)
	case detect.CellBasedL2:
		return CellBasedL2(p, params) + p.Cardinality*GridEnumExcess(p.Dim, p.Cardinality)
	case detect.PGraph:
		return ProxGraph(p, params)
	case detect.SSample:
		return SensSample(p, params)
	case detect.Pivot:
		// Pivot precompute (n·m distances) plus the filtered random scan;
		// the filter passes candidates within an r-slab of every pivot, a
		// fraction that shrinks with domain extent. Modeled as precompute
		// plus the Nested-Loop term discounted by a nominal filter factor.
		return 8*p.Cardinality + NestedLoop(p, params)/4
	default:
		panic(fmt.Sprintf("cost: no model for detector %v", kind))
	}
}

// Select implements Corollary 4.3 over the paper's candidate set
// A = {Nested-Loop, Cell-Based}: Cell-Based for the dense-inlier and
// sparse-outlier regimes, Nested-Loop otherwise.
func Select(p PartitionProfile, params detect.Params) detect.Kind {
	if cellCase(p, params) == CaseIntermediate {
		return detect.NestedLoop
	}
	return detect.CellBased
}

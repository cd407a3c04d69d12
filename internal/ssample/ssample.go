// Package ssample implements a linear-time approximate distance-threshold
// detector by sensitivity sampling, after Lucic, Bachem & Krause
// (arXiv:1605.00519). Instead of counting every point's neighbors against
// the full pool (quadratic), each point's neighbor count is *estimated*
// from a small weighted sample of the pool:
//
//  1. a uniform pilot sample gives every point a rough neighbor count ĉ₀,
//  2. each pool point's sensitivity s(p) = 1/(1 + ĉ₀(p)) upper-bounds its
//     worst-case share of any point's neighbor count — isolated points
//     (the ones whose presence or absence flips outlier verdicts) get high
//     sensitivity and are kept with near certainty,
//  3. m points are drawn with probability ∝ s(p) and importance weight
//     w = S/(m·s(p)), making Σ w·1[d(q,p) ≤ r] an unbiased estimator of
//     q's true neighbor count.
//
// The Hoeffding-style sample size m = ⌈ln(2/δ)/(2ε²)⌉ bounds the relative
// estimation error by ε with probability 1−δ for each point. Every verdict
// carries a confidence in (0.5, 1] from the normal approximation of the
// estimator's spread, so callers can route low-confidence points to an
// exact tactic.
//
// The detector is approximate: verdicts are NOT guaranteed identical to
// brute force. It is only eligible for planning when the caller opts in
// (Config.AllowApprox at the public API).
package ssample

import (
	"math"
	"math/rand"
	"sort"

	"dod/internal/geom"
)

// Params configures one scoring pass. R and K mirror detect.Params; Eps
// and Delta set the estimator's error bound (relative error ≤ Eps with
// probability ≥ 1−Delta, per point).
type Params struct {
	R     float64
	K     int
	Eps   float64 // default 0.1
	Delta float64 // default 0.01
}

// Default estimator error bound: relative error ≤ DefaultEps with
// probability ≥ 1 − DefaultDelta, per point. Exported so cost models price
// the same sample size the detector draws.
const (
	DefaultEps   = 0.1
	DefaultDelta = 0.01
)

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = DefaultEps
	}
	if p.Delta <= 0 {
		p.Delta = DefaultDelta
	}
	return p
}

// PilotSize is the uniform pilot sample bound used by the sensitivity
// pass; exported so cost models price the same constant.
const PilotSize = 256

// SampleSize returns the number of weighted draws for error bound eps at
// confidence 1-delta, clamped to [32, n].
func SampleSize(n int, eps, delta float64) int {
	if n <= 0 {
		return 0
	}
	m := int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
	if m < 32 {
		m = 32
	}
	if m > n {
		m = n
	}
	return m
}

// Score is one point's estimated verdict.
type Score struct {
	ID           uint64
	EstNeighbors float64 // unbiased estimate of the true neighbor count
	Outlier      bool    // EstNeighbors < K - 0.5
	Confidence   float64 // P(verdict correct) under the normal approximation, in (0.5, 1]
}

// Plan is the frozen sampling state of one pass: the weighted draws and
// their importance weights. Building it costs the pilot scan; scoring any
// range of core points against it is read-only, so tiled callers build one
// Plan sequentially and score tiles concurrently with verdicts (and
// distance-computation counts) identical to the sequential pass.
type Plan struct {
	all       *geom.PointSet
	r2        float64
	kThresh   float64
	draws     []int32
	weights   []float64
	BuildComp int64 // distance computations spent building the plan
}

// BuildPlan runs the pilot and sensitivity passes over the full set and
// freezes the weighted sample. Deterministic for a fixed (all, params,
// seed).
func BuildPlan(all *geom.PointSet, params Params, seed int64) *Plan {
	params = params.withDefaults()
	n := all.Len()
	pl := &Plan{
		all:     all,
		r2:      params.R * params.R,
		kThresh: float64(params.K) - 0.5,
	}
	if n == 0 {
		return pl
	}
	r2 := pl.r2
	rng := rand.New(rand.NewSource(seed))

	// Pilot: uniform sample of the pool, then a rough neighbor count for
	// every pool point against the pilot only — two cheap linear passes.
	m0 := PilotSize
	if m0 > n {
		m0 = n
	}
	pilot := rng.Perm(n)[:m0]
	sort.Ints(pilot) // deterministic scan order, cache-friendly
	c0 := make([]float64, n)
	scale := float64(n) / float64(m0)
	for i := 0; i < n; i++ {
		q := all.CoordsAt(i)
		id := all.IDs[i]
		cnt := 0
		for _, j := range pilot {
			pl.BuildComp++
			if all.IDs[j] != id && dist2(q, all.CoordsAt(j)) <= r2 {
				cnt++
			}
		}
		c0[i] = float64(cnt) * scale
	}

	// Sensitivities and their prefix sums for inverse-CDF sampling.
	sens := make([]float64, n)
	var totalS float64
	for i := range sens {
		sens[i] = 1 / (1 + c0[i])
		totalS += sens[i]
	}
	prefix := make([]float64, n)
	acc := 0.0
	for i, s := range sens {
		acc += s
		prefix[i] = acc
	}

	// m weighted draws with replacement; weight w makes the estimator
	// unbiased: E[Σ w·1] = Σ_p (m·s_p/S)·(S/(m·s_p))·1 = true count.
	m := SampleSize(n, params.Eps, params.Delta)
	pl.draws = make([]int32, m)
	pl.weights = make([]float64, m)
	for t := 0; t < m; t++ {
		u := rng.Float64() * totalS
		i := sort.SearchFloat64s(prefix, u)
		if i >= n {
			i = n - 1
		}
		pl.draws[t] = int32(i)
		pl.weights[t] = totalS / (float64(m) * sens[i])
	}
	return pl
}

// ScoreRange scores core points [lo, hi) against the frozen plan,
// appending one Score per point to dst and returning it plus the distance
// computations spent. Safe for concurrent calls on disjoint ranges.
func (pl *Plan) ScoreRange(dst []Score, lo, hi int) ([]Score, int64) {
	all := pl.all
	m := len(pl.draws)
	var comps int64
	for i := lo; i < hi; i++ {
		q := all.CoordsAt(i)
		id := all.IDs[i]
		var est, sumSq float64
		for t := 0; t < m; t++ {
			j := pl.draws[t]
			comps++
			if all.IDs[j] != id && dist2(q, all.CoordsAt(int(j))) <= pl.r2 {
				est += pl.weights[t]
				sumSq += pl.weights[t] * pl.weights[t]
			}
		}
		// Standard error of the sum of m independent draws; the normal
		// approximation turns the margin |est - threshold| into a
		// two-sided verdict confidence in (0.5, 1].
		mean := est / float64(m)
		variance := sumSq/float64(m) - mean*mean
		if variance < 0 {
			variance = 0
		}
		se := math.Sqrt(variance * float64(m))
		conf := 1.0
		if se > 0 {
			z := math.Abs(est-pl.kThresh) / se
			conf = 0.5 * (1 + math.Erf(z/math.Sqrt2))
		}
		dst = append(dst, Score{
			ID:           id,
			EstNeighbors: est,
			Outlier:      est < pl.kThresh,
			Confidence:   conf,
		})
	}
	return dst, comps
}

func dist2(a, b []float64) float64 {
	var d2 float64
	for j, v := range a {
		d := v - b[j]
		d2 += d * d
	}
	return d2
}

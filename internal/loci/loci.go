// Package loci implements LOCI outlier detection (Papadimitriou et al.,
// ICDE 2003 — the paper's reference [22]) as the second demonstration of
// the DOD framework's generality (Sec. III-B): like distance-threshold
// detection and DBSCAN, LOCI needs only a bounded neighborhood around each
// point, so the supporting-area partitioning lets every partition be
// processed in isolation.
//
// The implementation is the fixed-radius ("single granularity") LOCI test:
// for sampling radius r and counting factor α, a point p is an outlier iff
//
//	MDEF(p)   = 1 − n(p, αr) / n̂(p, r, α)      exceeds
//	kσ · σMDEF = kσ · σ(n(q, αr)) / n̂(p, r, α)
//
// where n(q, αr) counts points within αr of q (including q itself), and
// n̂/σ are the mean/standard deviation of n(q, αr) over all q within r of p
// (including p). Intuitively: p is anomalous when its local density sits
// far below the typical local density of its neighborhood.
package loci

import (
	"fmt"
	"math"
	"sort"

	"dod/internal/geom"
)

// Params configure the LOCI test.
type Params struct {
	// R is the sampling-neighborhood radius.
	R float64
	// Alpha is the counting-radius factor in (0, 1]; the canonical LOCI
	// value is 0.5. Zero selects 0.5.
	Alpha float64
	// KSigma is the deviation threshold; the canonical value is 3. Zero
	// selects 3.
	KSigma float64
}

func (p Params) withDefaults() Params {
	if p.Alpha == 0 {
		p.Alpha = 0.5
	}
	if p.KSigma == 0 {
		p.KSigma = 3
	}
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	p2 := p.withDefaults()
	if p2.R <= 0 {
		return fmt.Errorf("loci: r must be positive, got %g", p.R)
	}
	if p2.Alpha <= 0 || p2.Alpha > 1 {
		return fmt.Errorf("loci: alpha must be in (0, 1], got %g", p.Alpha)
	}
	if p2.KSigma <= 0 {
		return fmt.Errorf("loci: kSigma must be positive, got %g", p.KSigma)
	}
	return nil
}

// SupportRadius returns the supporting-area extension LOCI needs: every
// point within r of a core point contributes its αr-count, whose own
// neighborhood reaches another αr further out.
func (p Params) SupportRadius() float64 {
	p = p.withDefaults()
	return p.R * (1 + p.Alpha)
}

// Detect runs the centralized LOCI test and returns outlier IDs, sorted.
func Detect(points []geom.Point, params Params) ([]uint64, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, nil
	}
	ids := evaluate(points, nil, params.withDefaults())
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// evaluate runs the LOCI test for the core points with core ∪ support as
// context. Support points must cover the (1+α)r expansion for the verdicts
// to equal the centralized ones.
func evaluate(core, support []geom.Point, params Params) []uint64 {
	set := geom.PointSetOf(core, support)
	ix := geom.NewCellIndex(set, params.Alpha*params.R)
	od := geom.NewOdometer(set.Dim)

	// Pass 1: n(q, αr) for every pool point.
	alphaCount := make([]float64, set.Len())
	for i := range alphaCount {
		count := 0
		ix.Within(&od, set.CoordsAt(i), params.Alpha*params.R, func(int) { count++ })
		alphaCount[i] = float64(count) // includes the point itself
	}

	// Pass 2: the MDEF test for core points. The sums are of integers, so
	// the order Within visits neighbors in cannot change them.
	var outliers []uint64
	for i := range core {
		var sum, sumSq, n float64
		ix.Within(&od, set.CoordsAt(i), params.R, func(j int) {
			c := alphaCount[j]
			sum += c
			sumSq += c * c
			n++
		})
		mean := sum / n
		if mean == 0 {
			continue
		}
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		mdef := 1 - alphaCount[i]/mean
		sigmaMDEF := math.Sqrt(variance) / mean
		if mdef > params.KSigma*sigmaMDEF && mdef > 0 {
			outliers = append(outliers, set.IDs[i])
		}
	}
	return outliers
}

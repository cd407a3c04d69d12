package plan

import (
	"fmt"
	"math"

	"dod/internal/binpack"
	"dod/internal/cost"
	"dod/internal/detect"
	"dod/internal/dshc"
	"dod/internal/geom"
	"dod/internal/sample"
)

// Options parameterize plan generation.
type Options struct {
	NumReducers   int           // reduce task count; default 1
	NumPartitions int           // target partition count for grid/kd planners; default 4×reducers
	Params        detect.Params // the outlier parameters r, k
	// Detector fixes the algorithm plan for the single-tactic planners
	// (Domain, uniSpace, DDriven, CDriven). DMT ignores it.
	Detector detect.Kind
	// Candidates is DMT's algorithm candidate set A; defaults to
	// DefaultCandidates, not the paper's set (PaperCandidates).
	Candidates []detect.Kind
	// DSHC holds the clustering thresholds for DMT. A zero Tdiff is
	// auto-tuned to the histogram's density spread.
	DSHC dshc.Params
	// ExactSupport selects the exact Def. 3.2 supporting-area criterion
	// instead of the default Def. 3.3 rectangular expansion.
	ExactSupport bool
	// AllowApprox admits approximate detector kinds (Kind.Approximate) into
	// the candidate set. Default off: unless the caller opts in, every
	// tactic a plan can carry is exact, and whole-run byte-identity against
	// BruteForce is preserved. Approximate candidates are silently dropped
	// when unset.
	AllowApprox bool
}

func (o Options) withDefaults() Options {
	if o.NumReducers < 1 {
		o.NumReducers = 1
	}
	if o.NumPartitions < 1 {
		o.NumPartitions = 4 * o.NumReducers
	}
	if len(o.Candidates) == 0 {
		o.Candidates = DefaultCandidates()
	}
	if !o.AllowApprox {
		// Copy-on-filter: the caller's slice is never mutated.
		exact := make([]detect.Kind, 0, len(o.Candidates))
		for _, k := range o.Candidates {
			if !k.Approximate() {
				exact = append(exact, k)
			}
		}
		if len(exact) == 0 {
			exact = DefaultCandidates()
		}
		o.Candidates = exact
	}
	return o
}

// PaperCandidates returns the paper's candidate set A = {Nested-Loop,
// Cell-Based}, a fresh slice per call. The figures run it.
func PaperCandidates() []detect.Kind {
	return []detect.Kind{detect.NestedLoop, detect.CellBased}
}

// DefaultCandidates returns DMT's default candidate set, {Nested-Loop,
// Cell-Based-L2}, a fresh slice per call. It is not the paper's A: the
// paper's Cell-Based scans the whole candidate pool for every point of an
// undecided cell (Lemma 4.2's fallback), where Cell-Based-L2, like Knorr
// and Ng's cell algorithm, scans only the ring between the cell's L1 and
// L2 blocks. The two prune the same cells and return the same verdicts.
func DefaultCandidates() []detect.Kind {
	return []detect.Kind{detect.NestedLoop, detect.CellBasedL2}
}

// Planner generates a Plan from the sampled distribution estimate.
type Planner interface {
	Name() string
	Build(hist *sample.Histogram, opts Options) (*Plan, error)
	// NeedsStats reports whether the planner consumes sampled statistics.
	// Planners that return false (Domain, uniSpace) only use the
	// histogram's domain metadata, so the driver skips the sampling job —
	// matching Fig. 10(a), where those baselines show no preprocessing
	// cost.
	NeedsStats() bool
}

// Planners, in the order the experiments compare them.
var (
	Domain   Planner = domainPlanner{}
	UniSpace Planner = uniSpacePlanner{}
	DDriven  Planner = dDrivenPlanner{}
	CDriven  Planner = cDrivenPlanner{}
	DMT      Planner = dmtPlanner{}
)

// ByName resolves a planner from its experiment name.
func ByName(name string) (Planner, error) {
	switch name {
	case "Domain":
		return Domain, nil
	case "uniSpace", "UniSpace":
		return UniSpace, nil
	case "DDriven":
		return DDriven, nil
	case "CDriven":
		return CDriven, nil
	case "DMT":
		return DMT, nil
	default:
		return nil, fmt.Errorf("plan: unknown planner %q", name)
	}
}

// ---------------------------------------------------------------------------
// Domain: equi-width grid, NO supporting area. Local detection misses
// cross-partition neighbors, so the driver must run a second verification
// job (Sec. VI-A methodology). Allocation is round-robin.

type domainPlanner struct{}

func (domainPlanner) NeedsStats() bool { return false }

func (domainPlanner) Name() string { return "Domain" }

func (domainPlanner) Build(hist *sample.Histogram, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	pl := gridPlan("Domain", hist, opts)
	pl.SupportR = 0
	finishRoundRobin(pl, hist, opts)
	return pl, pl.Validate()
}

// ---------------------------------------------------------------------------
// uniSpace: equi-width grid WITH supporting areas (the Sec. III-A
// framework), round-robin allocation.

type uniSpacePlanner struct{}

func (uniSpacePlanner) NeedsStats() bool { return false }

func (uniSpacePlanner) Name() string { return "uniSpace" }

func (uniSpacePlanner) Build(hist *sample.Histogram, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	pl := gridPlan("uniSpace", hist, opts)
	pl.SupportR = opts.Params.R
	finishRoundRobin(pl, hist, opts)
	return pl, pl.Validate()
}

// gridPlan tiles the domain with an equi-width grid of roughly
// opts.NumPartitions cells.
func gridPlan(name string, hist *sample.Histogram, opts Options) *Plan {
	domain := hist.Grid.Domain
	d := domain.Dim()
	perDim := int(math.Round(math.Pow(float64(opts.NumPartitions), 1/float64(d))))
	if perDim < 1 {
		perDim = 1
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = perDim
	}
	grid := geom.NewGrid(domain, dims)
	pl := &Plan{Name: name, Domain: domain.Clone(), NumReducers: opts.NumReducers, ExactSupport: opts.ExactSupport}
	for ord := 0; ord < grid.NumCells(); ord++ {
		pl.Partitions = append(pl.Partitions, Partition{
			ID:   ord,
			Rect: grid.CellRect(grid.Unflatten(ord)),
		})
	}
	return pl
}

// finishRoundRobin fills counts, fixed-algorithm costs, and a round-robin
// allocation (the cardinality-oblivious baseline).
func finishRoundRobin(pl *Plan, hist *sample.Histogram, opts Options) {
	fillCounts(pl, hist)
	for i := range pl.Partitions {
		p := &pl.Partitions[i]
		p.Algo = opts.Detector
		p.EstCost = mixedCost(hist, p.Rect, opts.Detector, opts.Params)
		p.Reducer = i % opts.NumReducers
	}
}

// ---------------------------------------------------------------------------
// DDriven: recursive bisection of the domain into partitions of similar
// *cardinality* — the traditional load-balancing assumption — allocated by
// LPT over counts, supporting areas enabled.

type dDrivenPlanner struct{}

func (dDrivenPlanner) NeedsStats() bool { return true }

func (dDrivenPlanner) Name() string { return "DDriven" }

func (dDrivenPlanner) Build(hist *sample.Histogram, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	weight := func(c float64, r geom.Rect) float64 { return c }
	rects := splitByWeight(hist, opts.NumPartitions, weight)
	pl := assemble("DDriven", hist, opts, rects)
	for i := range pl.Partitions {
		p := &pl.Partitions[i]
		p.Algo = opts.Detector
		p.EstCost = mixedCost(hist, p.Rect, opts.Detector, opts.Params)
	}
	// Allocation balances cardinality, not cost: the assumption the paper
	// overturns.
	items := make([]binpack.Item, len(pl.Partitions))
	for i, p := range pl.Partitions {
		items[i] = binpack.Item{ID: p.ID, Weight: p.EstCount}
	}
	applyAllocation(pl, binpack.LPT(items, opts.NumReducers))
	return pl, pl.Validate()
}

// ---------------------------------------------------------------------------
// CDriven: the same recursive bisection, but weighted by the *modeled
// detection cost* of the fixed detector, allocated by LPT over cost — the
// paper's cost-driven partitioning.

type cDrivenPlanner struct{}

func (cDrivenPlanner) NeedsStats() bool { return true }

func (cDrivenPlanner) Name() string { return "CDriven" }

func (cDrivenPlanner) Build(hist *sample.Histogram, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	weight := func(c float64, r geom.Rect) float64 {
		return mixedCost(hist, r, opts.Detector, opts.Params)
	}
	rects := splitByWeight(hist, opts.NumPartitions, weight)
	pl := assemble("CDriven", hist, opts, rects)
	items := make([]binpack.Item, len(pl.Partitions))
	for i := range pl.Partitions {
		p := &pl.Partitions[i]
		p.Algo = opts.Detector
		p.EstCost = mixedCost(hist, p.Rect, opts.Detector, opts.Params)
		items[i] = binpack.Item{ID: p.ID, Weight: p.EstCost}
	}
	applyAllocation(pl, binpack.LPT(items, opts.NumReducers))
	return pl, pl.Validate()
}

// ---------------------------------------------------------------------------
// DMT: the full multi-tactic planner of Sec. V — DSHC density clustering,
// per-partition algorithm selection over the candidate set, cost-balanced
// allocation.

type dmtPlanner struct{}

func (dmtPlanner) NeedsStats() bool { return true }

func (dmtPlanner) Name() string { return "DMT" }

func (dmtPlanner) Build(hist *sample.Histogram, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	params := opts.DSHC
	if params.Tdiff <= 0 && params.DensityClass == nil {
		// Default: regime-aligned density classes. Buckets merge exactly
		// when Corollary 4.3 would give them the same detector, which both
		// keeps the per-partition algorithm choice meaningful and is
		// robust to sampling noise on sparse buckets.
		params.DensityClass = cost.RegimeClass(hist.Grid.Domain.Dim(), opts.Params)
	}
	if params.TmaxPoints <= 0 {
		// Reducer memory bound (criterion 3): a generous multiple of the
		// mean reducer share, so it binds only on pathological clusters.
		params.TmaxPoints = 8 * hist.EstimatedTotal() / float64(opts.NumReducers)
	}
	// Cluster over a lightly smoothed histogram: a single noisy bucket
	// (Poisson speckle in the sample) would otherwise break the
	// rectangular-merge constraint and shatter a homogeneous region into
	// hundreds of clusters. Counts and costs are recomputed from the exact
	// histogram afterwards.
	clusters := dshc.Build(smoothHistogram(hist), params)

	// Refine: DSHC merges density-homogeneous regions regardless of their
	// modeled cost, so a single cluster can exceed an entire reducer's fair
	// share, making balanced allocation impossible (the same concern
	// criterion 3's Tmax# addresses for memory). Split any cluster whose
	// modeled cost exceeds the per-reducer budget along mini-bucket
	// boundaries; density — and therefore the algorithm choice — is
	// preserved by DSHC's homogeneity.
	parts := refineByCost(hist, opts, clusters)

	pl := &Plan{Name: "DMT", Domain: hist.Grid.Domain.Clone(), NumReducers: opts.NumReducers, SupportR: opts.Params.R, ExactSupport: opts.ExactSupport}
	items := make([]binpack.Item, len(parts))
	for i, c := range parts {
		c.ID = i
		pl.Partitions = append(pl.Partitions, c)
		items[i] = binpack.Item{ID: i, Weight: c.EstCost}
	}
	applyAllocation(pl, binpack.LPT(items, opts.NumReducers))
	return pl, pl.Validate()
}

// smoothHistogram returns a copy of hist whose bucket counts are averaged
// over their 3×3 (3^d) neighborhood, suppressing Poisson speckle before
// clustering. Totals are approximately preserved; exact counts are always
// re-derived from the original histogram.
//
// Only non-empty buckets are walked: each scatters its count to its
// neighbours in ascending ordinal order, so every bucket's sum takes its
// neighbours' counts in row-major order, as a gather over the
// neighbourhood would, and skips only +0 terms. The sum is then divided by
// the bucket's clipped neighbourhood size.
func smoothHistogram(hist *sample.Histogram) *sample.Histogram {
	grid := hist.Grid
	out := &sample.Histogram{Grid: grid, Counts: make([]float64, len(hist.Counts)), Rate: hist.Rate}
	for ord, c := range hist.Counts {
		if c != 0 {
			grid.Neighborhood(grid.Unflatten(ord), 1, func(o int) { out.Counts[o] += c })
		}
	}
	for ord := range out.Counts {
		cells := 1
		for i, rest := len(grid.Dims)-1, ord; i >= 0; i-- {
			n := grid.Dims[i]
			c := rest % n
			rest /= n
			cells *= min(c+1, n-1) - max(c-1, 0) + 1
		}
		out.Counts[ord] /= float64(cells)
	}
	return out
}

// refineByCost prices each cluster with its selected detector and splits
// clusters whose modeled cost exceeds the per-reducer cost budget. Splits
// are axis-aligned at mini-bucket boundaries; counts are recomputed exactly
// from the histogram.
func refineByCost(hist *sample.Histogram, opts Options, clusters []dshc.Cluster) []Partition {
	work := make([]Partition, 0, len(clusters))
	for _, c := range clusters {
		work = append(work, priceRegion(hist, c.Rect, opts.Candidates, opts.Params))
	}

	for pass := 0; pass < 10; pass++ {
		var total float64
		for _, p := range work {
			total += p.EstCost
		}
		// Two budgets: a partition above balanceBudget makes a balanced
		// allocation impossible and must split; one above grainBudget
		// splits only if the cost model says the halves are genuinely
		// cheaper (true for Nested-Loop, whose trial count grows with the
		// candidate-pool size; false for the linear Cell-Based regimes,
		// where splitting only adds supporting-area duplication).
		balanceBudget := total / float64(opts.NumReducers)
		grainBudget := total / float64(opts.NumPartitions)
		split := false
		next := work[:0:0]
		for _, p := range work {
			if p.EstCost <= grainBudget {
				next = append(next, p)
				continue
			}
			left, right, ok := bisectAtBucket(hist, p.Rect)
			if !ok {
				next = append(next, p) // single mini bucket: indivisible
				continue
			}
			l := priceRegion(hist, left, opts.Candidates, opts.Params)
			r := priceRegion(hist, right, opts.Candidates, opts.Params)
			if p.EstCost > balanceBudget || l.EstCost+r.EstCost < 0.95*p.EstCost {
				split = true
				next = append(next, l, r)
			} else {
				next = append(next, p)
			}
		}
		work = next
		if !split {
			break
		}
	}
	return work
}

// bisectAtBucket splits rect at the mini-bucket boundary nearest its middle
// along its widest (in buckets) dimension. It reports false if the rect
// spans a single bucket in every dimension.
func bisectAtBucket(hist *sample.Histogram, rect geom.Rect) (left, right geom.Rect, ok bool) {
	grid := hist.Grid
	bestDim, bestSpan := -1, 1
	var lo, hi int
	for dim := 0; dim < rect.Dim(); dim++ {
		w := grid.CellWidth(dim)
		l := int(math.Round((rect.Min[dim] - grid.Domain.Min[dim]) / w))
		h := int(math.Round((rect.Max[dim] - grid.Domain.Min[dim]) / w))
		if h-l > bestSpan {
			bestDim, bestSpan = dim, h-l
			lo, hi = l, h
		}
	}
	if bestDim < 0 {
		return geom.Rect{}, geom.Rect{}, false
	}
	mid := grid.Boundary(bestDim, (lo+hi)/2)
	left, right = rect.Clone(), rect.Clone()
	left.Max[bestDim] = mid
	right.Min[bestDim] = mid
	return left, right, true
}

// bucketsIn returns the box of mini buckets whose centers fall inside rect.
// Rect.Contains is a conjunction over dimensions and bucket centers ascend
// with the bucket index, so the member set is the product of one index
// range per dimension. The ranges come from the center test itself, never
// from rounding rect's edges to indices, so unaligned rectangles get the
// member set a scan of every bucket would give them.
func bucketsIn(grid *geom.Grid, rect geom.Rect) region {
	d := len(grid.Dims)
	bounds := make([]int, 2*d)
	box := region{lo: bounds[:d], hi: bounds[d:]}
	for i, n := range grid.Dims {
		first, last := 0, -1
		for c := 0; c < n; c++ {
			center := (grid.Boundary(i, c) + grid.Boundary(i, c+1)) / 2
			if center < rect.Min[i] || center > rect.Max[i] {
				continue
			}
			if last < 0 {
				first = c
			}
			last = c
		}
		box.lo[i], box.hi[i] = first, last+1
	}
	return box
}

// mixedCost prices one detector on a region: priceRegion with a single
// candidate, as the single-tactic planners use it.
func mixedCost(hist *sample.Histogram, rect geom.Rect, kind detect.Kind, params detect.Params) float64 {
	return priceRegion(hist, rect, []detect.Kind{kind}, params).EstCost
}

// priceRegion makes rect a partition: its cardinality estimated from the
// mini buckets inside it, and the cheapest of the candidate detectors on
// them with its modeled cost (ties keep the earlier candidate). A detector
// is priced on a (possibly mixed-density) region by integrating the
// per-point cost models over the region's buckets, instead of treating the
// region as one uniform blob. The distinction matters for skewed
// partitions: Lemma 4.2 prices a region by its *average* density, but a
// dense partition with a sparse fringe pays the full Nested-Loop fallback
// for every fringe point — a cost the whole-region model misses entirely.
// On the density-homogeneous partitions DSHC emits this coincides with
// Corollary 4.3 / Lemma 4.1-4.2 on the aggregate profile.
//
// One walk of the region's own buckets sums the count and a second prices
// every candidate, each into its own accumulator in ascending bucket
// order: the additions a full-grid scan per candidate would make, in the
// order it would make them, so every cost is the same float.
func priceRegion(hist *sample.Histogram, rect geom.Rect, kinds []detect.Kind, params detect.Params) Partition {
	grid := hist.Grid
	dim := grid.Domain.Dim()
	box := bucketsIn(grid, rect)
	poolCount := box.count(hist)
	if poolCount == 0 {
		return Partition{Rect: rect, Algo: kinds[0]}
	}
	regime := cost.RegimeClass(dim, params)
	// The grid tactics' block-walk excess and the L2 block's volume depend
	// on the region alone, not on the bucket.
	gridExcess := cost.GridEnumExcess(dim, poolCount)
	_, l2Vol := cost.BlockVolumes(dim, params.R)
	// Prox-Graph rescales the histogram's empirical pair statistic from the
	// global average density; both are properties of the whole histogram.
	var empNeighbors, global float64
	for _, kind := range kinds {
		if kind == detect.PGraph {
			if emp, ok := hist.AvgNeighbors(params.R); ok {
				empNeighbors, global = emp, globalDensity(hist)
			}
		}
	}

	totals := make([]float64, len(kinds))
	box.each(grid, func(ord int, idx []int) {
		c := hist.BucketCount(ord)
		if c == 0 {
			return // an empty bucket's per-point cost may be +Inf, and 0·Inf is NaN
		}
		vol := 1.0 // the bucket's Rect.AreaEps(1e-12)
		for i, b := range idx {
			e := grid.Boundary(i, b+1) - grid.Boundary(i, b)
			if e < 1e-12 {
				e = 1e-12
			}
			vol *= e
		}
		density := c / vol
		for k, kind := range kinds {
			var perPoint float64
			switch kind {
			case detect.NestedLoop:
				perPoint = cost.PerPointTrials(density, poolCount, dim, params)
			case detect.CellBased:
				// Indexing plus, for intermediate-regime buckets, the
				// full-pool Nested-Loop fallback of Lemma 4.2 Eq. (3); plus the
				// high-dimensional neighborhood-enumeration overhead (zero in
				// low dimension, where Lemma 4.2 is exact).
				perPoint = 1 + gridExcess
				if regime(density) == 2 {
					perPoint += cost.PerPointTrials(density, poolCount, dim, params)
				}
			case detect.CellBasedL2:
				perPoint = 1 + gridExcess
				if regime(density) == 2 {
					ring := l2Vol * density
					trials := cost.PerPointTrials(density, poolCount, dim, params)
					if ring < trials {
						trials = ring
					}
					perPoint += trials
				}
			case detect.BruteForce:
				perPoint = poolCount
			case detect.KDTree:
				perPoint = cost.KDPerQuery(poolCount, dim, params)
			case detect.PGraph:
				// The geometric lambda underflows in high dimension; the
				// histogram's empirical pair statistic, rescaled from the
				// global average to this bucket's density, recovers the true
				// clumping at radius r. Take whichever is larger.
				lambda := cost.ExpectedNeighbors(density, dim, params.R)
				if global > 0 {
					if scaled := empNeighbors * (density / global); scaled > lambda {
						lambda = scaled
					}
				}
				perPoint = cost.ProxGraphPerPoint(lambda, poolCount, params)
			default:
				perPoint = cost.Estimate(kind, cost.PartitionProfile{
					Cardinality: poolCount, Area: rect.AreaEps(1e-12), Dim: dim,
				}, params) / poolCount
			}
			totals[k] += c * perPoint
		}
	})

	cheapest := 0
	for k := range totals {
		if totals[k] < totals[cheapest] {
			cheapest = k
		}
	}
	return Partition{Rect: rect, EstCount: poolCount, Algo: kinds[cheapest], EstCost: totals[cheapest]}
}

// globalDensity is the histogram's whole-domain average density, the
// baseline the empirical neighbor statistic is rescaled from.
func globalDensity(hist *sample.Histogram) float64 {
	vol := hist.Grid.Domain.AreaEps(1e-12)
	if vol <= 0 {
		return 0
	}
	return hist.EstimatedTotal() / vol
}

// ---------------------------------------------------------------------------
// Shared helpers.

// region is a sub-box of the histogram grid in bucket coordinates
// (half-open index ranges per dimension).
type region struct {
	lo, hi []int // hi exclusive
}

func (r region) splittableDim() int {
	best, extent := -1, 1
	for i := range r.lo {
		if e := r.hi[i] - r.lo[i]; e > extent {
			best, extent = i, e
		}
	}
	return best
}

// each calls fn with the row-major ordinal and the per-dimension indices of
// every bucket of r, in ascending ordinal order. fn must not keep idx.
func (r region) each(grid *geom.Grid, fn func(ord int, idx []int)) {
	for i := range r.lo {
		if r.hi[i] <= r.lo[i] {
			return
		}
	}
	idx := append([]int(nil), r.lo...)
	for {
		fn(grid.Flatten(idx), idx)
		// Increment the odometer.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < r.hi[i] {
				break
			}
			idx[i] = r.lo[i]
		}
		if i < 0 {
			return
		}
	}
}

// count sums the estimated cardinality of r's buckets.
func (r region) count(hist *sample.Histogram) float64 {
	var total float64
	r.each(hist.Grid, func(ord int, _ []int) { total += hist.BucketCount(ord) })
	return total
}

// splitByWeight greedily bisects the heaviest region at its weighted median
// until the target partition count is reached, returning the region
// rectangles in domain coordinates.
func splitByWeight(hist *sample.Histogram, target int, weight func(count float64, rect geom.Rect) float64) []geom.Rect {
	grid := hist.Grid
	d := grid.Domain.Dim()

	full := region{lo: make([]int, d), hi: append([]int(nil), grid.Dims...)}
	regions := []region{full}

	regionRect := func(r region) geom.Rect {
		min := make([]float64, d)
		max := make([]float64, d)
		for i := 0; i < d; i++ {
			min[i] = grid.Boundary(i, r.lo[i])
			max[i] = grid.Boundary(i, r.hi[i])
		}
		return geom.Rect{Min: min, Max: max}
	}
	regionWeight := func(r region) float64 { return weight(r.count(hist), regionRect(r)) }

	for len(regions) < target {
		// Pick the heaviest splittable region.
		best, bestW := -1, -1.0
		for i, r := range regions {
			if r.splittableDim() < 0 {
				continue
			}
			if w := regionWeight(r); w > bestW {
				best, bestW = i, w
			}
		}
		if best < 0 {
			break // nothing splittable
		}
		r := regions[best]
		dim := r.splittableDim()

		// Weighted median along dim: the split index that best halves the
		// region's count.
		half := r.count(hist) / 2
		cut := r.lo[dim] + 1
		var acc float64
		for s := r.lo[dim]; s < r.hi[dim]-1; s++ {
			slice := region{lo: append([]int(nil), r.lo...), hi: append([]int(nil), r.hi...)}
			slice.lo[dim], slice.hi[dim] = s, s+1
			acc += slice.count(hist)
			cut = s + 1
			if acc >= half {
				break
			}
		}
		left := region{lo: append([]int(nil), r.lo...), hi: append([]int(nil), r.hi...)}
		right := region{lo: append([]int(nil), r.lo...), hi: append([]int(nil), r.hi...)}
		left.hi[dim] = cut
		right.lo[dim] = cut
		regions[best] = left
		regions = append(regions, right)
	}

	rects := make([]geom.Rect, len(regions))
	for i, r := range regions {
		rects[i] = regionRect(r)
	}
	return rects
}

// assemble builds a Plan from partition rectangles, filling counts from the
// histogram. Supporting areas are enabled (SupportR = r).
func assemble(name string, hist *sample.Histogram, opts Options, rects []geom.Rect) *Plan {
	pl := &Plan{Name: name, Domain: hist.Grid.Domain.Clone(), NumReducers: opts.NumReducers, SupportR: opts.Params.R, ExactSupport: opts.ExactSupport}
	for i, r := range rects {
		pl.Partitions = append(pl.Partitions, Partition{ID: i, Rect: r})
	}
	fillCounts(pl, hist)
	return pl
}

// fillCounts distributes the histogram's bucket counts onto partitions by
// bucket-center membership. Planner rectangles align with bucket
// boundaries, so the assignment is exact for planner-generated plans.
func fillCounts(pl *Plan, hist *sample.Histogram) {
	grid := hist.Grid
	for ord := 0; ord < grid.NumCells(); ord++ {
		c := hist.BucketCount(ord)
		if c == 0 {
			continue
		}
		center := grid.CellRect(grid.Unflatten(ord)).Center()
		core, _ := pl.Locate(center)
		pl.Partitions[core].EstCount += c
	}
}

// applyAllocation writes a bin-packing assignment into the plan.
func applyAllocation(pl *Plan, a *binpack.Assignment) {
	for i := range pl.Partitions {
		pl.Partitions[i].Reducer = a.ItemBin[pl.Partitions[i].ID]
	}
}

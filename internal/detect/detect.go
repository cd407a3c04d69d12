// Package detect implements the centralized distance-threshold outlier
// detectors that DOD dispatches to partitions: the paper's candidate set
// A = {Nested-Loop, Cell-Based} (Sec. IV), a brute-force reference used by
// tests, and extension tactics beyond the paper (Cell-Based-L2, KD-Tree,
// Pivot, Prox-Graph, and the approximate Sens-Sample).
//
// All detectors answer the same question (Def. 2.2): among the *core*
// points, which have fewer than k neighbors within distance r, where
// neighbors are drawn from core ∪ support and a point is never its own
// neighbor.
//
// Every tactic is one kernel of one shape: prepare builds the read-only
// state once (permutation, cell index, tree, pivot table, graph or
// sample) and returns a scan over a range of work items — core points, or
// core cells for the Cell-Based variants. DetectSetParallel is the one
// driver; sequential detection is its one-tile case.
package detect

import (
	"fmt"
	"strings"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/par"
)

// Kind names a detector class.
type Kind int

// Detector kinds. NestedLoop and CellBased form the paper's algorithm
// candidate set A; BruteForce and KDTree are reference/extension detectors.
// The zero value is Unspecified so configuration structs can distinguish
// "not set" from an explicit choice.
const (
	Unspecified Kind = iota
	BruteForce
	NestedLoop
	CellBased
	KDTree
	CellBasedL2
	Pivot
	PGraph
	SSample
)

// String returns the canonical detector name.
func (k Kind) String() string {
	switch k {
	case Unspecified:
		return "Unspecified"
	case BruteForce:
		return "BruteForce"
	case NestedLoop:
		return "Nested-Loop"
	case CellBased:
		return "Cell-Based"
	case KDTree:
		return "KD-Tree"
	case CellBasedL2:
		return "Cell-Based-L2"
	case Pivot:
		return "Pivot"
	case PGraph:
		return "Prox-Graph"
	case SSample:
		return "Sens-Sample"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Approximate reports whether the kind may return verdicts that differ
// from the exact (brute-force) answer. Approximate kinds are only eligible
// for planning when the caller opts in (Config.AllowApprox at the public
// API); every other kind is exact and bit-identical to BruteForce.
func (k Kind) Approximate() bool { return k == SSample }

// ParseKind resolves a detector name back to its Kind — the inverse of
// String. Matching is case-insensitive and ignores hyphens, so
// "CellBased", "cell-based" and "Cell-Based" all parse. Failures match
// errs.ErrBadParams.
func ParseKind(name string) (Kind, error) {
	norm := strings.ToLower(strings.ReplaceAll(name, "-", ""))
	for _, k := range []Kind{BruteForce, NestedLoop, CellBased, KDTree, CellBasedL2, Pivot, PGraph, SSample} {
		if norm == strings.ToLower(strings.ReplaceAll(k.String(), "-", "")) {
			return k, nil
		}
	}
	return Unspecified, errs.BadParams("unknown detector %q", name)
}

// Set implements flag.Value, so a *Kind can be passed to flag.Var.
func (k *Kind) Set(name string) error {
	parsed, err := ParseKind(name)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Params are the distance-threshold outlier parameters of Def. 2.2.
type Params struct {
	R float64 // distance threshold; neighbors satisfy dist <= R
	K int     // neighbor-count threshold; outliers have fewer than K neighbors
}

// Validate reports whether the parameters are usable. Failures match
// errs.ErrBadParams via errors.Is.
func (p Params) Validate() error {
	if p.R <= 0 {
		return errs.BadParams("distance threshold r must be positive, got %g", p.R)
	}
	if p.K < 1 {
		return errs.BadParams("neighbor threshold k must be >= 1, got %d", p.K)
	}
	return nil
}

// Stats records the work a detector performed. The experiments use
// DistComps as the deterministic cost measure when replaying reducer tasks
// through the cluster simulator.
type Stats struct {
	DistComps     int64 // pairwise distance evaluations
	PointsIndexed int64 // points hashed into a grid/tree (Cell-Based, KD-Tree)
	CellsPruned   int64 // grid cells resolved without per-point work
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.DistComps += other.DistComps
	s.PointsIndexed += other.PointsIndexed
	s.CellsPruned += other.CellsPruned
}

// Cost returns a scalar work measure: one unit per distance computation
// plus one per indexed point (the Cell-Based "scan and index" term of
// Lemma 4.2).
func (s Stats) Cost() int64 { return s.DistComps + s.PointsIndexed }

// Result is a detector's output on one partition.
type Result struct {
	OutlierIDs []uint64 // IDs of core points with fewer than K neighbors
	Stats      Stats
}

// Detector is a centralized distance-threshold outlier detection algorithm.
// Implementations must be deterministic for a fixed seed and must not
// mutate the input slices.
type Detector interface {
	Kind() Kind
	// Detect classifies the core points using core ∪ support as the
	// neighbor pool and returns the outliers among core.
	Detect(core, support []geom.Point, params Params) Result

	// prepare is the tactic's one kernel, and seals the interface. all
	// holds the core points as its first nCore entries and the support
	// points after them. prepare builds the read-only state once, charging
	// that work to st, and returns the number of work items with a scan
	// that classifies items [lo, hi) into t in sequential order. Each scan
	// call allocates its own scratch, so scans of disjoint ranges may run
	// concurrently.
	prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (items int, scan func(lo, hi int, t *Result))
}

// DetectSet runs d on a columnar point set without converting back to row
// points: all must hold the core points as its first nCore entries and the
// support points after them. It is DetectSetParallel's one-tile case, and
// its Results are identical to Detect on the equivalent slices.
func DetectSet(d Detector, all *geom.PointSet, nCore int, params Params) Result {
	return DetectSetParallel(d, all, nCore, params, 1)
}

// DetectSetParallel is the one detection driver: d prepares its read-only
// state, then its scan covers the work items in up to workers contiguous
// tiles (workers < 1 means GOMAXPROCS). One tile scans straight into the
// Result; more run concurrently and concatenate in tile order. Tiles are
// contiguous ranges of the sequential order, and an item's verdict and
// distance count depend only on the shared read-only state, so every
// worker count returns the same Result bit for bit — callers may switch
// freely, including under a deterministic-replay contract.
func DetectSetParallel(d Detector, all *geom.PointSet, nCore int, params Params, workers int) Result {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if nCore == 0 {
		return Result{}
	}
	var res Result
	items, scan := d.prepare(all, nCore, params, &res.Stats)
	tiles := par.Tiles(items, workers)
	if tiles == 1 {
		scan(0, items, &res)
		return res
	}
	parts := make([]Result, tiles)
	par.Do(items, workers, func(tile, lo, hi int) { scan(lo, hi, &parts[tile]) })
	total := 0
	for i := range parts {
		total += len(parts[i].OutlierIDs)
	}
	if total > 0 {
		res.OutlierIDs = make([]uint64, 0, total)
	}
	for i := range parts {
		res.OutlierIDs = append(res.OutlierIDs, parts[i].OutlierIDs...)
		res.Stats.Add(parts[i].Stats)
	}
	return res
}

// rowDetect adapts the public row-oriented Detect contract onto the
// columnar driver: validate, convert core+support into one contiguous
// PointSet (core first), and detect. Every built-in Detect method is this
// thin conversion layer.
func rowDetect(d Detector, core, support []geom.Point, params Params) Result {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if len(core) == 0 {
		return Result{}
	}
	all := geom.NewPointSet(core[0].Dim(), len(core)+len(support))
	for _, p := range core {
		all.Append(p)
	}
	for _, p := range support {
		all.Append(p)
	}
	return DetectSet(d, all, len(core), params)
}

// New constructs a detector of the given kind. Seed drives any internal
// randomization (the Nested-Loop scan order); detectors that use no
// randomness ignore it.
func New(kind Kind, seed int64) Detector {
	switch kind {
	case BruteForce:
		return bruteForceDetector{}
	case NestedLoop:
		return nestedLoopDetector{seed: seed}
	case CellBased:
		return cellBasedDetector{seed: seed}
	case KDTree:
		return kdTreeDetector{}
	case CellBasedL2:
		return cellBasedL2Detector{}
	case Pivot:
		return pivotDetector{seed: seed}
	case PGraph:
		return pgraphDetector{seed: seed}
	case SSample:
		return ssampleDetector{seed: seed}
	default:
		panic(fmt.Sprintf("detect: unknown kind %d", int(kind)))
	}
}

// bruteForceDetector counts every pairwise distance with no early exit.
// It is the semantic reference implementation: O(|core|·|all|).
type bruteForceDetector struct{}

func (bruteForceDetector) Kind() Kind { return BruteForce }

func (d bruteForceDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (bruteForceDetector) prepare(all *geom.PointSet, nCore int, params Params, _ *Stats) (int, func(lo, hi int, t *Result)) {
	n, r2 := all.Len(), params.R*params.R
	// A limit of n never stops the count: every point is compared with
	// every other.
	return nCore, func(lo, hi int, t *Result) {
		for i := lo; i < hi; i++ {
			id := all.IDs[i]
			neighbors, compared := all.CountWithin2Coords(all.CoordsAt(i), id, 0, n, r2, n)
			t.Stats.DistComps += int64(compared)
			if neighbors < params.K {
				t.OutlierIDs = append(t.OutlierIDs, id)
			}
		}
	}
}

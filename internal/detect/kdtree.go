package detect

import (
	"sort"

	"dod/internal/geom"
)

// kdTreeDetector is an index-based detector beyond the paper's candidate
// set: it builds a kd-tree over core ∪ support and answers each core
// point's neighbor-count query with a pruned range count that terminates as
// soon as k neighbors are confirmed. It trades the Cell-Based detector's
// O(1) cell pruning for logarithmic spatial pruning that does not degrade
// with extreme sparsity, and serves as the "future work: richer algorithm
// candidate sets" extension discussed in Sec. I.
//
// The tree is columnar: nodes live in one flat arena indexed by int32, each
// referencing its point by PointSet index, so building and traversing touch
// no per-node heap objects and the split dimension is derived from depth
// rather than stored.
type kdTreeDetector struct{}

func (kdTreeDetector) Kind() Kind { return KDTree }

// kdNode is one arena slot: the point at this node plus child arena
// indices (-1 for none).
type kdNode struct {
	pt          int32
	left, right int32
}

// kdTree is the arena plus the point set it indexes.
type kdTree struct {
	set    *geom.PointSet
	nodes  []kdNode
	root   int32
	sorter kdSorter
}

// kdSorter orders point indices by one coordinate. It is a reusable
// sort.Interface so the per-node sorts in build allocate nothing (a
// sort.Slice closure would cost two allocations per tree node).
type kdSorter struct {
	coords []float64
	d, dim int
	idxs   []int32
}

func (s *kdSorter) Len() int { return len(s.idxs) }
func (s *kdSorter) Less(i, j int) bool {
	return s.coords[int(s.idxs[i])*s.d+s.dim] < s.coords[int(s.idxs[j])*s.d+s.dim]
}
func (s *kdSorter) Swap(i, j int) { s.idxs[i], s.idxs[j] = s.idxs[j], s.idxs[i] }

// build recursively median-splits idxs (point indices into t.set),
// appending nodes to the arena and returning the subtree's arena index.
// idxs is reordered in place.
func (t *kdTree) build(idxs []int32, depth int, stats *Stats) int32 {
	if len(idxs) == 0 {
		return -1
	}
	d := t.set.Dim
	dim := depth % d
	t.sorter = kdSorter{coords: t.set.Coords, d: d, dim: dim, idxs: idxs}
	sort.Sort(&t.sorter)
	mid := len(idxs) / 2
	stats.PointsIndexed++
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{pt: idxs[mid]})
	// Children are built after the append so arena growth cannot
	// invalidate the node reference we patch below.
	left := t.build(idxs[:mid], depth+1, stats)
	right := t.build(idxs[mid+1:], depth+1, stats)
	t.nodes[node].left = left
	t.nodes[node].right = right
	return node
}

// countWithin counts points within r of point pi (r2 = r*r), excluding pi
// itself, stopping once the count reaches limit.
func (t *kdTree) countWithin(node int32, depth, pi int, r2 float64, limit int, count *int, stats *Stats) {
	if node < 0 || *count >= limit {
		return
	}
	n := t.nodes[node]
	set := t.set
	if set.IDs[n.pt] != set.IDs[pi] {
		stats.DistComps++
		if set.Within2(pi, int(n.pt), r2) {
			*count++
			if *count >= limit {
				return
			}
		}
	}
	d := set.Dim
	dim := depth % d
	diff := set.Coords[pi*d+dim] - set.Coords[int(n.pt)*d+dim]
	near, far := n.left, n.right
	if diff > 0 {
		near, far = n.right, n.left
	}
	t.countWithin(near, depth+1, pi, r2, limit, count, stats)
	if diff*diff <= r2 {
		t.countWithin(far, depth+1, pi, r2, limit, count, stats)
	}
}

func (d kdTreeDetector) Detect(core, support []geom.Point, params Params) Result {
	return rowDetect(d, core, support, params)
}

func (kdTreeDetector) prepare(all *geom.PointSet, nCore int, params Params, st *Stats) (int, func(lo, hi int, t *Result)) {
	n := all.Len()
	tree := &kdTree{set: all, nodes: make([]kdNode, 0, n)}
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	tree.root = tree.build(idxs, 0, st)
	r2 := params.R * params.R
	// Queries only read the arena, so concurrent scans share one tree.
	return nCore, func(lo, hi int, t *Result) {
		for i := lo; i < hi; i++ {
			count := 0
			tree.countWithin(tree.root, 0, i, r2, params.K, &count, &t.Stats)
			if count < params.K {
				t.OutlierIDs = append(t.OutlierIDs, all.IDs[i])
			}
		}
	}
}

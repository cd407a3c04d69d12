package geom

import "sort"

// KDTree is a kd-tree over a PointSet, answering fixed-radius counts and
// k-nearest queries. It is columnar: nodes live in one flat arena indexed
// by int32, each naming its point by set index, so building and querying
// touch no per-node heap objects, and a node's split dimension is its depth
// mod d rather than a stored field. Queries only read the tree, so
// concurrent queries may share one.
type KDTree struct {
	set    *PointSet
	nodes  []kdNode
	root   int32
	sorter kdSorter
}

// kdNode is one arena slot: the point at this node plus child arena
// indices (-1 for none).
type kdNode struct {
	pt          int32
	left, right int32
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

// NewKDTree builds a median-split tree over every point of set, which may
// be empty.
func NewKDTree(set *PointSet) *KDTree {
	n := set.Len()
	t := &KDTree{set: set, nodes: make([]kdNode, 0, n)}
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	t.root = t.build(idxs, 0)
	return t
}

// build recursively median-splits idxs (point indices into t.set),
// appending nodes to the arena and returning the subtree's arena index.
// idxs is reordered in place.
func (t *KDTree) build(idxs []int32, depth int) int32 {
	if len(idxs) == 0 {
		return -1
	}
	t.sorter = kdSorter{coords: t.set.Coords, d: t.set.Dim, dim: depth % t.set.Dim, idxs: idxs}
	sort.Sort(&t.sorter)
	mid := len(idxs) / 2
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{pt: idxs[mid]})
	// Children are built after the append so arena growth cannot
	// invalidate the node reference we patch below.
	left := t.build(idxs[:mid], depth+1)
	right := t.build(idxs[mid+1:], depth+1)
	t.nodes[node].left = left
	t.nodes[node].right = right
	return node
}

// split returns node n's signed offset from q along its split dimension and
// its children, the one on q's side first.
func (t *KDTree) split(n kdNode, depth int, q []float64) (diff float64, near, far int32) {
	dim := depth % t.set.Dim
	diff = q[dim] - t.set.Coords[int(n.pt)*t.set.Dim+dim]
	if diff > 0 {
		return diff, n.right, n.left
	}
	return diff, n.left, n.right
}

// CountWithin counts the points within r (r2 = r*r) of the coordinate row
// q, leaving out points whose ID is skipID, and stops once the count
// reaches limit. It also returns how many points received a distance
// evaluation: every visited node whose ID is not skipID, which is the
// KD-Tree tactic's DistComps.
func (t *KDTree) CountWithin(q []float64, skipID uint64, r2 float64, limit int) (count, compared int) {
	t.countWithin(t.root, 0, q, skipID, r2, limit, &count, &compared)
	return count, compared
}

func (t *KDTree) countWithin(node int32, depth int, q []float64, skipID uint64, r2 float64, limit int, count, compared *int) {
	if node < 0 || *count >= limit {
		return
	}
	n := t.nodes[node]
	if t.set.IDs[n.pt] != skipID {
		*compared++
		if t.set.Within2Coords(int(n.pt), q, r2) {
			*count++
			if *count >= limit {
				return
			}
		}
	}
	diff, near, far := t.split(n, depth, q)
	t.countWithin(near, depth+1, q, skipID, r2, limit, count, compared)
	if diff*diff <= r2 {
		t.countWithin(far, depth+1, q, skipID, r2, limit, count, compared)
	}
}

// Nearest returns best holding the k smallest squared distances (by
// Dist2Coords) from the coordinate row q to points whose ID is not skipID,
// as a max-heap: best[0] is the largest, the k-th nearest once len(best)
// is k. Fewer than k such points leave len(best) < k. best must be empty
// on entry; its capacity is reused.
func (t *KDTree) Nearest(q []float64, skipID uint64, k int, best []float64) []float64 {
	return t.nearest(t.root, 0, q, skipID, k, best)
}

func (t *KDTree) nearest(node int32, depth int, q []float64, skipID uint64, k int, best []float64) []float64 {
	if node < 0 {
		return best
	}
	n := t.nodes[node]
	if t.set.IDs[n.pt] != skipID {
		d2 := t.set.Dist2Coords(int(n.pt), q)
		if len(best) < k {
			best = append(best, d2)
			heapUp(best, len(best)-1)
		} else if d2 < best[0] {
			best[0] = d2
			heapDown(best, 0)
		}
	}
	diff, near, far := t.split(n, depth, q)
	best = t.nearest(near, depth+1, q, skipID, k, best)
	if len(best) < k || diff*diff < best[0] {
		best = t.nearest(far, depth+1, q, skipID, k, best)
	}
	return best
}

// heapUp restores the max-heap order of h after h[i] grew.
func heapUp(h []float64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// heapDown restores the max-heap order of h after h[i] shrank.
func heapDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

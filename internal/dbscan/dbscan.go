// Package dbscan demonstrates the generality of the DOD framework
// (Sec. III-B: the supporting-area partitioning "can be easily adapted to
// support other mining tasks ... such as density-based clustering"). It
// implements DBSCAN both as a centralized reference and as a reduce
// function on core's supporting-area job: the same map function, plans,
// supporting areas and engine as outlier detection.
//
// Distributed semantics follow the MR-DBSCAN merge rule: each reducer
// clusters its partition's core ∪ support points locally; a point that is
// a DBSCAN core point *in its home partition* and appears in two
// partitions' clusterings welds those local clusters into one global
// cluster. A border point shared between partitions does not weld
// (standard DBSCAN border ambiguity); its home partition's assignment
// wins.
package dbscan

import (
	"fmt"
	"sort"

	"dod/internal/geom"
)

// Params are the DBSCAN parameters.
type Params struct {
	Eps    float64 // neighborhood radius
	MinPts int     // minimum neighborhood size (inclusive of the point) for a core point
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("dbscan: eps must be positive, got %g", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: minPts must be >= 1, got %d", p.MinPts)
	}
	return nil
}

// Noise is the label of unclustered points.
const Noise = -1

// Result maps each input point ID to its cluster label (0..NumClusters-1)
// or Noise.
type Result struct {
	Labels      map[uint64]int
	NumClusters int
}

// localLabel records one partition-local clustering fact about a point.
type localLabel struct {
	pointID   uint64
	partition int  // the partition whose clustering produced this fact
	label     int  // partition-local cluster id, or Noise
	isCore    bool // DBSCAN core point in this clustering
	isHome    bool // the point is a core (home) record of this partition
}

// Cluster runs centralized DBSCAN over the points.
func Cluster(points []geom.Point, params Params) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	labels, _ := clusterLocal(points, nil, params)
	out := &Result{Labels: make(map[uint64]int, len(points))}
	max := -1
	for _, p := range points {
		l := labels[p.ID].label
		out.Labels[p.ID] = l
		if l > max {
			max = l
		}
	}
	out.NumClusters = max + 1
	return out, nil
}

// clusterLocal runs DBSCAN over core ∪ support. Core-point status is exact
// for home points (their full eps-neighborhood is present by the
// supporting-area guarantee) and conservative for support points. Returns
// per-point facts keyed by ID, and the number of local clusters.
func clusterLocal(core, support []geom.Point, params Params) (map[uint64]localLabel, int) {
	n := len(core) + len(support)
	facts := make(map[uint64]localLabel, n)
	if n == 0 {
		return facts, 0
	}

	// Cells exactly eps wide, so Within walks about three cells a side.
	set := geom.PointSetOf(core, support)
	ix := geom.NewCellIndex(set, params.Eps)
	od := geom.NewOdometer(set.Dim)
	var nbrs []int // one neighbour buffer, refilled per point
	neighborsOf := func(i int) []int {
		nbrs = nbrs[:0]
		ix.Within(&od, set.CoordsAt(i), params.Eps, func(j int) {
			nbrs = append(nbrs, j) // includes i itself (MinPts counts it)
		})
		return nbrs
	}

	labels := make([]int, n)
	isCore := make([]bool, n)
	for i := range labels {
		labels[i] = Noise
	}
	var queue []int
	// enqueue labels every still-unlabelled point of list as the cluster's
	// when it is queued, so each point is queued once. Within one
	// cluster's BFS the order points are labelled in does not change the
	// final labels.
	enqueue := func(list []int, cluster int) {
		for _, j := range list {
			if labels[j] == Noise {
				labels[j] = cluster
				queue = append(queue, j)
			}
		}
	}
	nextCluster := 0
	for i := range labels {
		if labels[i] != Noise {
			continue
		}
		seed := neighborsOf(i)
		if len(seed) < params.MinPts {
			continue // noise (possibly rescued later as a border point)
		}
		isCore[i] = true
		cluster := nextCluster
		nextCluster++
		labels[i] = cluster
		// BFS expansion.
		queue = queue[:0]
		enqueue(seed, cluster)
		for head := 0; head < len(queue); head++ {
			j := queue[head]
			if list := neighborsOf(j); len(list) >= params.MinPts {
				isCore[j] = true
				enqueue(list, cluster)
			}
		}
	}

	for i, id := range set.IDs {
		facts[id] = localLabel{
			pointID: id,
			label:   labels[i],
			isCore:  isCore[i],
			isHome:  i < len(core),
		}
	}
	return facts, nextCluster
}

// mergeKey identifies a partition-local cluster in the global union-find.
type mergeKey struct {
	partition int
	label     int
}

// unionFind is a tiny disjoint-set over mergeKeys.
type unionFind struct {
	parent map[mergeKey]mergeKey
}

func newUnionFind() *unionFind { return &unionFind{parent: map[mergeKey]mergeKey{}} }

func (u *unionFind) find(k mergeKey) mergeKey {
	p, ok := u.parent[k]
	if !ok {
		u.parent[k] = k
		return k
	}
	if p == k {
		return k
	}
	root := u.find(p)
	u.parent[k] = root
	return root
}

func (u *unionFind) union(a, b mergeKey) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// reconcile welds partition-local clusterings into global labels. For each
// point: if it is a core point in its home partition, every local cluster
// containing it is the same global cluster. The home label decides the
// point's own membership.
func reconcile(perPoint map[uint64][]localLabel) *Result {
	uf := newUnionFind()
	type homeFact struct {
		key   mergeKey
		noise bool
	}
	home := make(map[uint64]homeFact, len(perPoint))

	for id, facts := range perPoint {
		var homeCore bool
		for _, f := range facts {
			if f.isHome {
				homeCore = f.isCore
				if f.label == Noise {
					home[id] = homeFact{noise: true}
				} else {
					home[id] = homeFact{key: mergeKey{partition: f.partition, label: f.label}}
				}
			}
		}
		if !homeCore {
			continue
		}
		// Weld every non-noise local cluster containing this core point.
		var keys []mergeKey
		for _, f := range facts {
			if f.label != Noise {
				keys = append(keys, mergeKey{partition: f.partition, label: f.label})
			}
		}
		for i := 1; i < len(keys); i++ {
			uf.union(keys[0], keys[i])
		}
	}

	// Canonical numbering of the union-find roots, deterministic by root
	// order.
	roots := map[mergeKey]int{}
	var rootList []mergeKey
	res := &Result{Labels: make(map[uint64]int, len(perPoint))}
	ids := make([]uint64, 0, len(perPoint))
	for id := range perPoint {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		hf, ok := home[id]
		if !ok || hf.noise {
			res.Labels[id] = Noise
			continue
		}
		root := uf.find(hf.key)
		num, seen := roots[root]
		if !seen {
			num = len(rootList)
			roots[root] = num
			rootList = append(rootList, root)
		}
		res.Labels[id] = num
	}
	res.NumClusters = len(rootList)
	return res
}

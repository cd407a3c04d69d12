// Package pgraph implements an exact proximity-graph detector in the style
// of Amagata et al. (arXiv:2110.08959): a degree-bounded navigable neighbor
// graph is built once per partition, and distance-threshold neighbor counts
// are answered by a best-first walk over the graph.
//
// The walk alone is a heuristic — a navigable graph can fail to reach some
// r-neighbors — so it is used only as a *sound inlier certificate*: every
// neighbor the walk counts is confirmed by a real distance computation, so
// reaching k of them proves the point is an inlier. A point the walk cannot
// certify falls back to a verified expansion (a full linear count), which
// settles its verdict exactly. Verdicts are therefore bit-identical to the
// brute-force reference on every input; the graph only changes how much work
// certification costs.
//
// Construction and search are deterministic for a fixed seed: the insertion
// order is a seeded permutation, adjacency lists are pruned with (distance,
// index) ordering, and both heaps break distance ties by node index.
package pgraph

import (
	"math/rand"

	"dod/internal/geom"
)

// Tunables, exported so the planner's cost models (internal/cost) price the
// same constants the detector executes.
const (
	// Degree is the adjacency-list bound M: each node keeps at most Degree
	// neighbors, selected by the diversity heuristic when links overflow
	// it. Threshold certification only needs to reach ~k near neighbors,
	// so the graph can run leaner than a k-NN recall index; construction
	// cost scales with EfBuild·Degree and dominates the tactic's total,
	// which is why both sit well below the usual HNSW defaults.
	Degree = 8
	// EfBuild is the beam width of the construction-time nearest search:
	// each inserted node links to a diverse subset of the best EfBuild
	// candidates.
	EfBuild = 12
)

// EfSearch returns the query beam width for a neighbor-count threshold k.
// The floor is deliberately wide: in high dimension pairwise distances
// concentrate, so a narrow beam converges prematurely on mediocre
// candidates and sends certifiable inliers to the linear fallback. A
// wide beam costs certified points nothing — their walk still exits at
// the k-th verified neighbor — and only the rare hard points explore it.
func EfSearch(k int) int { return max(4*k, efSearchFloor) }

// efSearchFloor is EfSearch's floor: the beam width of every k <= 32.
const efSearchFloor = 128

// WalkBudget returns the hard visit cap of one range-certification walk.
// Past it the walk gives up and the caller falls back to the verified
// linear expansion, so the per-point graph work is strictly bounded.
func WalkBudget(k int) int { return 8 * EfSearch(k) }

// Graph is a navigable proximity graph over a columnar point set. It only
// reads the set; all mutable search state lives in a Scratch.
type Graph struct {
	set   *geom.PointSet
	adj   []int32 // flat adjacency, stride Degree
	deg   []int32 // adjacency lengths
	entry int32   // first inserted node; every walk starts here
}

// cand is one (squared distance, node) search entry. All orderings compare
// (d2, idx) so equal distances resolve deterministically.
type cand struct {
	d2  float64
	idx int32
}

func candLess(a, b cand) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.idx < b.idx
}

// Scratch holds the reusable per-goroutine search state: an epoch-marked
// visited array and the two walk heaps, plus the buffers Build's link
// selection reuses from node to node. One Scratch serves any number of
// sequential queries against graphs over sets of at most n points.
type Scratch struct {
	mark  []uint32
	epoch uint32
	heap  []cand // min-heap of frontier candidates
	res   []cand // max-heap of the best ef results

	links    []cand // an inserted node's selected links
	kept     []cand // link's re-selection; distinct from links, which link runs under
	rejected []cand // selectDiverse's non-diverse candidates
	cands    []cand // link's current neighbors plus the new one
}

// NewScratch returns search scratch for point sets of up to n points. The
// marks take one allocation and the six candidate buffers are carved from
// one more, each capacity-clipped to what one search can hold: the result
// heap EfSearch's floor plus the one entry pushed before the worst is
// popped, the frontier heap one entry per visit (WalkBudget's floor, or n),
// and Build's link buffers Degree+1 or EfBuild. A CountWithin walk with
// k <= 32 therefore never grows a buffer; a wider beam, or a Build search
// that queues more than the clip, grows its own piece by append without
// reaching a neighbour's.
func NewScratch(n int) *Scratch {
	sizes := [...]int{
		min(n, WalkBudget(0)),  // heap
		efSearchFloor + 1,      // res
		Degree,                 // links
		Degree,                 // kept
		max(EfBuild, Degree+1), // rejected: at most all of selectDiverse's candidates
		Degree + 1,             // cands
	}
	total := 0
	for _, size := range sizes {
		total += size
	}
	slab := make([]cand, total)
	var pieces [len(sizes)][]cand
	for i, size := range sizes {
		pieces[i], slab = slab[:0:size], slab[size:]
	}
	return &Scratch{
		mark: make([]uint32, n),
		heap: pieces[0], res: pieces[1],
		links: pieces[2], kept: pieces[3], rejected: pieces[4], cands: pieces[5],
	}
}

func (sc *Scratch) reset() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear marks once and restart epochs
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.epoch = 1
	}
	sc.heap = sc.heap[:0]
	sc.res = sc.res[:0]
}

func (sc *Scratch) visited(i int32) bool { return sc.mark[i] == sc.epoch }
func (sc *Scratch) visit(i int32)        { sc.mark[i] = sc.epoch }

// ---- small inline binary heaps (no container/heap interface churn) ----
//
// One pair per ordering, each calling candLess directly so the comparison
// inlines into every sift step. (d2, idx) is a total order, so every pop,
// and with it every walk and DistComps count, is fixed by the pushes.

// minPush adds c to the min-heap h (nearest (d2, idx) on top).
func minPush(h *[]cand, c cand) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// minPop removes and returns the min-heap h's top.
func minPop(h *[]cand) cand {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && candLess(s[l], s[small]) {
			small = l
		}
		if r < len(s) && candLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// maxPush adds c to the max-heap h (farthest (d2, idx) on top).
func maxPush(h *[]cand, c cand) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(s[p], s[i]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// maxPop removes the max-heap h's top.
func maxPop(h *[]cand) {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s) && candLess(s[big], s[l]) {
			big = l
		}
		if r < len(s) && candLess(s[big], s[r]) {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}

// Build constructs the graph over all of set's points by incremental
// insertion in a seeded random order, returning the graph and the number of
// distance computations spent. Identical (set, seed) inputs build identical
// graphs regardless of caller concurrency: construction itself is
// sequential and seeded.
func Build(set *geom.PointSet, seed int64) (*Graph, int64) {
	n := set.Len()
	g := &Graph{set: set, adj: make([]int32, n*Degree), deg: make([]int32, n)}
	var comps int64
	if n == 0 {
		return g, 0
	}
	order := rand.New(rand.NewSource(seed)).Perm(n)
	g.entry = int32(order[0])
	sc := NewScratch(n)
	for t := 1; t < n; t++ {
		node := int32(order[t])
		nearest := g.searchNearest(set.CoordsAt(int(node)), EfBuild, sc, &comps)
		// Diverse selection rather than plain nearest: clustered data would
		// otherwise fill every adjacency list with same-cluster nodes and
		// leave the graph non-navigable across clusters.
		sc.links = g.selectDiverse(sc.links[:0], nearest, sc, &comps)
		for _, c := range sc.links {
			g.setAdj(node, c)
			g.link(c.idx, node, c.d2, sc, &comps)
		}
	}
	return g, comps
}

// selectDiverse picks at most Degree candidates from cands (ascending by
// (d2, idx)) with the classic navigable-graph heuristic: a candidate is
// kept only if it is closer to the subject than to every already-kept
// neighbor, so each kept link covers a distinct direction — near links
// into the local cluster, far links across clusters. Leftover capacity is
// filled with the nearest rejected candidates. The selection is appended to
// kept, which must be empty; sc only lends the rejected list.
func (g *Graph) selectDiverse(kept, cands []cand, sc *Scratch, comps *int64) []cand {
	rejected := sc.rejected[:0]
	for _, c := range cands {
		if len(kept) == Degree {
			break
		}
		diverse := true
		for _, s := range kept {
			*comps += 1
			if g.set.Dist2Coords(int(c.idx), g.set.CoordsAt(int(s.idx))) < c.d2 {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, c)
		} else {
			rejected = append(rejected, c)
		}
	}
	for _, c := range rejected {
		if len(kept) == Degree {
			break
		}
		kept = append(kept, c)
	}
	sc.rejected = rejected
	return kept
}

// setAdj appends v to u's adjacency without pruning; only valid while u
// has spare capacity (a freshly inserted node linking its selection).
func (g *Graph) setAdj(u int32, v cand) {
	base := int(u) * Degree
	d := g.deg[u]
	if d < Degree {
		g.adj[base+int(d)] = v.idx
		g.deg[u] = d + 1
	}
}

// link adds v to u's adjacency list. A full list is re-selected from the
// current neighbors plus v with the same diversity heuristic used at
// insertion, which keeps the graph degree-bounded without evicting the
// long-range links navigation depends on.
func (g *Graph) link(u, v int32, d2 float64, sc *Scratch, comps *int64) {
	base := int(u) * Degree
	d := g.deg[u]
	for i := int32(0); i < d; i++ {
		if g.adj[base+int(i)] == v {
			return // already linked (mutual EfBuild candidates)
		}
	}
	if d < Degree {
		g.adj[base+int(d)] = v
		g.deg[u] = d + 1
		return
	}
	cands := sc.cands[:0]
	for i := 0; i < Degree; i++ {
		w := g.adj[base+i]
		*comps += 1
		cands = append(cands, cand{d2: g.set.Dist2Coords(int(w), g.set.CoordsAt(int(u))), idx: w})
	}
	cands = append(cands, cand{d2: d2, idx: v})
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	sc.cands = cands
	sel := g.selectDiverse(sc.kept[:0], cands, sc, comps)
	sc.kept = sel
	for i, c := range sel {
		g.adj[base+i] = c.idx
	}
	g.deg[u] = int32(len(sel))
}

// searchNearest runs the beam search toward q and returns up to ef visited
// nodes sorted ascending by (distance, index). Every returned node carries a
// real computed distance. The result is sc's own result buffer, valid until
// sc's next search.
func (g *Graph) searchNearest(q []float64, ef int, sc *Scratch, comps *int64) []cand {
	sc.reset()
	set := g.set
	sc.visit(g.entry)
	*comps += 1
	e := cand{d2: set.Dist2Coords(int(g.entry), q), idx: g.entry}
	minPush(&sc.heap, e)
	maxPush(&sc.res, e)

	for len(sc.heap) > 0 {
		c := minPop(&sc.heap)
		if len(sc.res) >= ef && candLess(sc.res[0], c) {
			break // nearest frontier is farther than the worst kept result
		}
		base := int(c.idx) * Degree
		for i := int32(0); i < g.deg[c.idx]; i++ {
			nb := g.adj[base+int(i)]
			if sc.visited(nb) {
				continue
			}
			sc.visit(nb)
			*comps += 1
			nc := cand{d2: set.Dist2Coords(int(nb), q), idx: nb}
			if len(sc.res) < ef || candLess(nc, sc.res[0]) {
				minPush(&sc.heap, nc)
				maxPush(&sc.res, nc)
				if len(sc.res) > ef {
					maxPop(&sc.res)
				}
			}
		}
	}
	out := sc.res
	// Heap order is partial; sort the small result list deterministically.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && candLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CountWithin walks the graph outward from point qi — the query point is
// itself a node, so the walk starts at its own adjacency rather than
// navigating from a global entry — and counts distinct verified neighbors
// within r² of it (the point itself, identified by skipID, never counts).
// It returns certified=true as soon as k neighbors are confirmed — a sound
// inlier certificate, since every counted neighbor cost a real distance
// computation. If the beam terminates or the visit budget runs out first,
// certified is false and the count is a lower bound only: the caller must
// fall back to an exact expansion.
func (g *Graph) CountWithin(qi int, r2 float64, k int, sc *Scratch) (found int, certified bool, comps int64) {
	set := g.set
	q := set.CoordsAt(qi)
	skipID := set.IDs[qi]
	ef := EfSearch(k)
	budget := WalkBudget(k)

	sc.reset()
	start := int32(qi)
	sc.visit(start)
	comps++
	e := cand{d2: set.Dist2Coords(int(start), q), idx: start}
	if e.d2 <= r2 && set.IDs[e.idx] != skipID {
		found++
		if found >= k {
			return found, true, comps
		}
	}
	minPush(&sc.heap, e)
	maxPush(&sc.res, e)
	visits := 1

	for len(sc.heap) > 0 && visits < budget {
		c := minPop(&sc.heap)
		if len(sc.res) >= ef && candLess(sc.res[0], c) {
			break
		}
		base := int(c.idx) * Degree
		for i := int32(0); i < g.deg[c.idx]; i++ {
			nb := g.adj[base+int(i)]
			if sc.visited(nb) {
				continue
			}
			sc.visit(nb)
			visits++
			comps++
			nc := cand{d2: set.Dist2Coords(int(nb), q), idx: nb}
			if nc.d2 <= r2 && set.IDs[nb] != skipID {
				found++
				if found >= k {
					return found, true, comps
				}
			}
			if len(sc.res) < ef || candLess(nc, sc.res[0]) {
				minPush(&sc.heap, nc)
				maxPush(&sc.res, nc)
				if len(sc.res) > ef {
					maxPop(&sc.res)
				}
			}
			if visits >= budget {
				break
			}
		}
	}
	return found, false, comps
}

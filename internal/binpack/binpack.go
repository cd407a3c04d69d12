// Package binpack solves the partition-to-reducer allocation problem of
// DMT's Step 3 (Sec. V-A): divide N weighted items (partitions with
// estimated costs) into K bins (reducers) so the maximum bin weight — the
// end-to-end reduce time — is minimized. The problem is the NP-complete
// multi-bin packing of [Lemaire, Finke, Brauner 2006]; the package provides
// the polynomial-time approximations used in practice:
//
//   - LPT greedy (largest item to the lightest bin), the allocator DOD uses.
//     It is also the simulated cluster's scheduler (core): tasks are the
//     items, the paper's 40 × 8 task slots the bins, and the makespan of a
//     phase is MaxLoad.
//   - Karmarkar–Karp largest differencing, a higher-quality alternative
//     exercised by the allocator ablation benchmark.
//   - Round-robin, the naive baseline.
package binpack

import (
	"container/heap"
	"fmt"
	"sort"
)

// Item is one weighted unit to allocate.
type Item struct {
	ID     int
	Weight float64
}

// Assignment maps item IDs to bin indices.
type Assignment struct {
	Bins    [][]Item  // items per bin
	Loads   []float64 // total weight per bin
	ItemBin map[int]int
}

// MaxLoad returns the heaviest bin's load (the makespan being minimized).
func (a *Assignment) MaxLoad() float64 {
	var max float64
	for _, l := range a.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// Imbalance returns max/mean load over the bins that hold an item; 1 is
// perfect balance. An assignment of no items, or of zero total weight,
// returns 0.
func (a *Assignment) Imbalance() float64 {
	var sum float64
	busy := 0
	for bin, l := range a.Loads {
		if len(a.Bins[bin]) > 0 {
			sum += l
			busy++
		}
	}
	if sum == 0 {
		return 0
	}
	return a.MaxLoad() / (sum / float64(busy))
}

func newAssignment(bins int) *Assignment {
	return &Assignment{
		Bins:    make([][]Item, bins),
		Loads:   make([]float64, bins),
		ItemBin: make(map[int]int),
	}
}

func (a *Assignment) place(item Item, bin int) {
	a.Bins[bin] = append(a.Bins[bin], item)
	a.Loads[bin] += item.Weight
	a.ItemBin[item.ID] = bin
}

// binHeap is a min-heap over (load, bin index).
type binEntry struct {
	load float64
	bin  int
}
type binHeap []binEntry

func (h binHeap) Len() int { return len(h) }
func (h binHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].bin < h[j].bin
}
func (h binHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *binHeap) Push(x any)   { *h = append(*h, x.(binEntry)) }
func (h *binHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// LPT allocates items to bins by longest-processing-time-first greedy:
// sort items by descending weight, place each into the currently lightest
// bin. Deterministic: ties break by item ID and bin index.
func LPT(items []Item, bins int) *Assignment {
	if bins < 1 {
		panic(fmt.Sprintf("binpack: bins = %d < 1", bins))
	}
	sorted := append([]Item(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight > sorted[j].Weight
		}
		return sorted[i].ID < sorted[j].ID
	})
	a := newAssignment(bins)
	h := make(binHeap, bins)
	for i := range h {
		h[i] = binEntry{bin: i}
	}
	heap.Init(&h)
	for _, item := range sorted {
		// The root is the lightest bin; loading it in place and sifting it
		// down boxes nothing, where Pop and Push would allocate per item.
		a.place(item, h[0].bin)
		h[0].load += item.Weight
		heap.Fix(&h, 0)
	}
	return a
}

// RoundRobin allocates items to bins cyclically, ignoring weights — the
// naive cardinality-style baseline.
func RoundRobin(items []Item, bins int) *Assignment {
	if bins < 1 {
		panic(fmt.Sprintf("binpack: bins = %d < 1", bins))
	}
	a := newAssignment(bins)
	for i, item := range items {
		a.place(item, i%bins)
	}
	return a
}

// KarmarkarKarp allocates items by the largest differencing method
// generalized to k-way partitioning: repeatedly merge the two subsets with
// the largest load difference, scheduling the heavier half against the
// lighter. It typically yields tighter balance than LPT at O(n log n) cost.
func KarmarkarKarp(items []Item, bins int) *Assignment {
	if bins < 1 {
		panic(fmt.Sprintf("binpack: bins = %d < 1", bins))
	}
	a := newAssignment(bins)
	if len(items) == 0 {
		return a
	}

	// Each heap node is a k-tuple of part-loads (descending) plus the item
	// lists behind each part. Priority: largest (max-min) difference.
	type node struct {
		loads []float64
		parts [][]Item
	}
	diff := func(n *node) float64 { return n.loads[0] - n.loads[len(n.loads)-1] }

	nodes := make([]*node, 0, len(items))
	for _, it := range items {
		n := &node{loads: make([]float64, bins), parts: make([][]Item, bins)}
		n.loads[0] = it.Weight
		n.parts[0] = []Item{it}
		nodes = append(nodes, n)
	}

	// Deterministic max-heap by (difference, smallest contained item ID).
	minID := func(n *node) int {
		id := int(^uint(0) >> 1)
		for _, part := range n.parts {
			for _, it := range part {
				if it.ID < id {
					id = it.ID
				}
			}
		}
		return id
	}
	less := func(x, y *node) bool {
		dx, dy := diff(x), diff(y)
		if dx != dy {
			return dx > dy
		}
		return minID(x) < minID(y)
	}

	for len(nodes) > 1 {
		sort.SliceStable(nodes, func(i, j int) bool { return less(nodes[i], nodes[j]) })
		x, y := nodes[0], nodes[1]
		// Merge: x's largest part pairs with y's smallest, etc.
		merged := &node{loads: make([]float64, bins), parts: make([][]Item, bins)}
		for i := 0; i < bins; i++ {
			j := bins - 1 - i
			merged.loads[i] = x.loads[i] + y.loads[j]
			merged.parts[i] = append(append([]Item(nil), x.parts[i]...), y.parts[j]...)
		}
		// Re-sort the merged node's parts descending by load.
		idx := make([]int, bins)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return merged.loads[idx[a]] > merged.loads[idx[b]] })
		loads := make([]float64, bins)
		parts := make([][]Item, bins)
		for pos, i := range idx {
			loads[pos] = merged.loads[i]
			parts[pos] = merged.parts[i]
		}
		merged.loads, merged.parts = loads, parts
		nodes = append([]*node{merged}, nodes[2:]...)
	}

	final := nodes[0]
	for bin, part := range final.parts {
		for _, it := range part {
			a.place(it, bin)
		}
	}
	return a
}

package dshc

import (
	"math"

	"dod/internal/geom"
)

// node is one AF-tree node. Leaves carry a cluster AF; internal nodes carry
// child pointers under a bounding rectangle, exactly the (Rect,
// child-pointer) pairs of Sec. V-A. A leaf's rect shares its AF's slices,
// so a merge that grows the AF in place grows both.
type node struct {
	parent   *node
	rect     geom.Rect
	children []*node // nil iff leaf
	af       AF      // valid iff leaf
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is the AF-tree: an R-tree-like index whose leaves are the current
// clusters. Because cluster rectangles are closed, the standard overlap
// search already returns spatially *adjacent* clusters (touching
// boundaries), which is what the DSHC search operation requires.
type Tree struct {
	root   *node
	params Params
	leaves int

	// adjacent and stack are searchAdjacent's result and walk buffers,
	// reused by every search of one build.
	adjacent, stack []*node
}

// NewTree builds an empty AF-tree.
func NewTree(params Params) *Tree {
	return &Tree{params: params.withDefaults()}
}

// Len returns the number of clusters (leaves).
func (t *Tree) Len() int { return t.leaves }

// Clusters returns every current cluster, in deterministic tree order. The
// clusters' rectangles are the tree's own: a later Insert may grow them.
func (t *Tree) Clusters() []Cluster {
	var out []Cluster
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			out = append(out, Cluster{AF: n.af, ID: len(out)})
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// searchAdjacent returns all leaves whose rectangle overlaps or touches
// rect — the list of merging candidates (LMC) of the search operation — in
// depth-first order, children left to right. The walk keeps an explicit
// stack, and the list is the tree's buffer: it holds until the next
// search.
func (t *Tree) searchAdjacent(rect geom.Rect) []*node {
	out, stack := t.adjacent[:0], t.stack[:0]
	if t.root != nil {
		stack = append(stack, t.root)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.rect.Overlaps(rect) {
			continue
		}
		if n.isLeaf() {
			out = append(out, n)
			continue
		}
		for i := len(n.children) - 1; i >= 0; i-- {
			stack = append(stack, n.children[i])
		}
	}
	t.adjacent, t.stack = out, stack
	return out
}

// chooseParent descends to the leaf-parent whose bounding rectangle needs
// the least enlargement to absorb rect (the "pn" node of the search
// operation, reusing R-tree ChooseLeaf semantics).
func (t *Tree) chooseParent(rect geom.Rect) *node {
	n := t.root
	for n != nil && !n.isLeaf() {
		if len(n.children) > 0 && n.children[0].isLeaf() {
			return n // leaf-parent level
		}
		var best *node
		bestEnl, bestArea := math.Inf(1), math.Inf(1)
		for _, c := range n.children {
			enl := c.rect.Enlargement(rect)
			area := c.rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		n = best
	}
	return nil
}

// Insert adds a new cluster AF into the tree (the insert operation),
// attaching it near `hint` when given (the parent of the most
// density-similar LMC member per Sec. V-A) and splitting on overflow.
func (t *Tree) insertLeaf(af AF, hint *node) *node {
	af.Rect = af.Rect.Clone()
	leaf := &node{rect: af.Rect, af: af}
	t.leaves++
	if t.root == nil {
		t.root = &node{rect: af.Rect.Clone(), children: []*node{leaf}}
		leaf.parent = t.root
		return leaf
	}
	parent := hint
	if parent == nil {
		parent = t.chooseParent(af.Rect)
	}
	if parent == nil {
		// Root is itself the leaf-parent.
		parent = t.root
	}
	leaf.parent = parent
	parent.children = append(parent.children, leaf)
	t.adjustUpward(parent)
	t.splitIfNeeded(parent)
	return leaf
}

// removeLeaf deletes a leaf after a merge consumed it. Empty ancestors are
// pruned; no re-insertion is needed because merges only grow a sibling's
// rectangle to cover the removed leaf.
func (t *Tree) removeLeaf(leaf *node) {
	t.leaves--
	p := leaf.parent
	for p != nil {
		removeChild(p, leaf)
		if len(p.children) > 0 || p.parent == nil {
			t.adjustUpward(p)
			break
		}
		leaf, p = p, p.parent
	}
	// Collapse a root with a single internal child to keep height minimal.
	for t.root != nil && !t.root.isLeaf() && len(t.root.children) == 1 && !t.root.children[0].isLeaf() {
		t.root = t.root.children[0]
		t.root.parent = nil
	}
}

func removeChild(p *node, child *node) {
	for i, c := range p.children {
		if c == child {
			p.children = append(p.children[:i], p.children[i+1:]...)
			return
		}
	}
}

// adjustUpward recomputes bounding rectangles from n to the root. Each
// internal node's rectangle is its own pair of slices, written in place:
// the min and max of its children's bounds, folded in child order. The
// builtin min and max treat NaN and signed zeros as math.Min and math.Max
// do, so the bounds are Rect.Union's.
func (t *Tree) adjustUpward(n *node) {
	for ; n != nil; n = n.parent {
		if len(n.children) == 0 {
			continue
		}
		first := childRect(n.children[0])
		if n.rect.Min == nil {
			n.rect = first.Clone()
		} else {
			copy(n.rect.Min, first.Min)
			copy(n.rect.Max, first.Max)
		}
		for _, c := range n.children[1:] {
			cr := childRect(c)
			for i := range n.rect.Min {
				n.rect.Min[i] = min(n.rect.Min[i], cr.Min[i])
				n.rect.Max[i] = max(n.rect.Max[i], cr.Max[i])
			}
		}
	}
}

func childRect(c *node) geom.Rect {
	if c.isLeaf() {
		return c.af.Rect
	}
	return c.rect
}

// splitIfNeeded applies the standard R-tree quadratic split when a node
// overflows, propagating upward and growing a new root when necessary.
func (t *Tree) splitIfNeeded(n *node) {
	for n != nil && len(n.children) > t.params.MaxEntries {
		g1, g2 := quadraticSplit(n.children)
		n.children = g1
		for _, c := range g1 {
			c.parent = n
		}
		sibling := &node{parent: n.parent, children: g2}
		for _, c := range g2 {
			c.parent = sibling
		}
		t.adjustUpward(sibling)
		t.adjustUpward(n)

		if n.parent == nil {
			newRoot := &node{children: []*node{n, sibling}}
			n.parent, sibling.parent = newRoot, newRoot
			t.root = newRoot
			t.adjustUpward(newRoot)
			return
		}
		n.parent.children = append(n.parent.children, sibling)
		n = n.parent
	}
}

// quadraticSplit partitions children into two groups using Guttman's
// quadratic seeds (the pair wasting the most area apart) and least-
// enlargement assignment.
func quadraticSplit(children []*node) (g1, g2 []*node) {
	seed1, seed2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(children); i++ {
		for j := i + 1; j < len(children); j++ {
			ri, rj := childRect(children[i]), childRect(children[j])
			waste := ri.UnionArea(rj) - ri.Area() - rj.Area()
			if waste > worst {
				worst, seed1, seed2 = waste, i, j
			}
		}
	}
	// r1 and r2 are the groups' bounds, grown in place.
	r1, r2 := childRect(children[seed1]).Clone(), childRect(children[seed2]).Clone()
	g1 = append(g1, children[seed1])
	g2 = append(g2, children[seed2])
	for i, c := range children {
		if i == seed1 || i == seed2 {
			continue
		}
		rc := childRect(c)
		e1, e2 := r1.Enlargement(rc), r2.Enlargement(rc)
		// Balance: avoid starving either group.
		if e1 < e2 || (e1 == e2 && len(g1) <= len(g2)) {
			g1 = append(g1, c)
			r1.Absorb(rc)
		} else {
			g2 = append(g2, c)
			r2.Absorb(rc)
		}
	}
	return g1, g2
}

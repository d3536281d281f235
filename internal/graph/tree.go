package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNotATree is returned when a supplied edge set does not form a tree
// containing the requested root.
var ErrNotATree = errors.New("graph: edge set is not a tree")

// RootedTree is a rooted view over a tree-shaped subset of a host
// graph's edges, supporting parent/depth queries, weighted distances to
// the root, lowest common ancestors (binary lifting), and tree paths.
// Node IDs are those of the host graph; nodes outside the tree are
// reported via InTree.
//
// The zero value is an empty tree ready for Reset, which re-roots it
// over a new edge set while reusing every array, so a caller rooting
// many candidate trees in turn allocates only while its buffers grow.
type RootedTree struct {
	root       NodeID
	host       *Graph
	inTree     []bool
	parentNode []NodeID
	parentEdge []EdgeID
	depth      []int
	distRoot   []float64 // weighted distance to root
	up         [][]NodeID
	order      []NodeID // preorder

	adj   [][]halfEdge // per node: incident tree edges in insertion order
	nodes []NodeID     // nodes the edge set touches, root first
	stack []NodeID     // DFS scratch
}

// NewRootedTree roots the tree formed by edgeIDs (edges of host) at
// root. The edge set must be acyclic and connected and must contain
// root (an isolated root with zero edges is also valid).
func NewRootedTree(host *Graph, edgeIDs []EdgeID, root NodeID) (*RootedTree, error) {
	t := new(RootedTree)
	if err := t.Reset(host, edgeIDs, root); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset re-roots t at root over the tree formed by edgeIDs (edges of
// host), with the same contract as NewRootedTree. It reuses t's arrays;
// work is proportional to the edge set, plus host.NumNodes() only when
// the host size changes. On error t holds no usable tree until the
// next successful Reset.
func (t *RootedTree) Reset(host *Graph, edgeIDs []EdgeID, root NodeID) error {
	t.prepare(host.NumNodes())
	n := len(t.inTree)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: root %d with n=%d", ErrNodeOutOfRange, root, n)
	}
	t.root, t.host = root, host
	t.nodes = append(t.nodes, root)
	for _, id := range edgeIDs {
		e := host.Edge(id)
		t.touch(e.U)
		t.adj[e.U] = append(t.adj[e.U], halfEdge{to: e.V, id: id})
		t.touch(e.V)
		t.adj[e.V] = append(t.adj[e.V], halfEdge{to: e.U, id: id})
	}
	// Iterative DFS from the root.
	t.stack = append(t.stack[:0], root)
	t.inTree[root] = true
	visitedEdges := 0
	for len(t.stack) > 0 {
		v := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.order = append(t.order, v)
		for _, h := range t.adj[v] {
			if h.id == t.parentEdge[v] {
				continue
			}
			if t.inTree[h.to] {
				return fmt.Errorf("%w: cycle through node %d", ErrNotATree, h.to)
			}
			t.inTree[h.to] = true
			t.parentNode[h.to] = v
			t.parentEdge[h.to] = h.id
			t.depth[h.to] = t.depth[v] + 1
			t.distRoot[h.to] = t.distRoot[v] + host.Weight(h.id)
			visitedEdges++
			t.stack = append(t.stack, h.to)
		}
	}
	if visitedEdges != len(edgeIDs) {
		return fmt.Errorf("%w: %d edges unreachable from root %d",
			ErrNotATree, len(edgeIDs)-visitedEdges, root)
	}
	if len(t.order) != len(t.nodes) {
		return fmt.Errorf("%w: disconnected from root %d", ErrNotATree, root)
	}
	t.buildLifting()
	return nil
}

// touch records v as a node of the edge set on first sight. A node
// other than the root is new exactly while its adjacency is empty,
// because every touch is followed by an append to it.
func (t *RootedTree) touch(v NodeID) {
	if v != t.root && len(t.adj[v]) == 0 {
		t.nodes = append(t.nodes, v)
	}
}

// prepare sizes the per-node arrays for an n-node host and resets the
// entries the previous edge set touched (all of them on a size change).
func (t *RootedTree) prepare(n int) {
	if len(t.inTree) != n {
		t.inTree = make([]bool, n)
		t.parentNode = make([]NodeID, n)
		t.parentEdge = make([]EdgeID, n)
		t.depth = make([]int, n)
		t.distRoot = make([]float64, n)
		t.adj = make([][]halfEdge, n)
		for v := 0; v < n; v++ {
			t.parentNode[v] = -1
			t.parentEdge[v] = -1
		}
	} else {
		for _, v := range t.nodes {
			t.inTree[v] = false
			t.parentNode[v] = -1
			t.parentEdge[v] = -1
			t.depth[v] = 0
			t.distRoot[v] = 0
			t.adj[v] = t.adj[v][:0]
		}
	}
	t.nodes = t.nodes[:0]
	t.order = t.order[:0]
}

// buildLifting fills the binary-lifting table for the tree's nodes.
// Level 0 is parentNode itself; higher levels reuse the arrays of
// earlier trees. Entries of nodes outside the tree are stale and never
// read: every query starts inside the tree, and ancestors of tree nodes
// are tree nodes.
func (t *RootedTree) buildLifting() {
	levels := 1
	for 1<<levels < len(t.order)+1 {
		levels++
	}
	n := len(t.parentNode)
	t.up = append(t.up[:0], t.parentNode)
	for k := 1; k < levels; k++ {
		var cur []NodeID
		if k < cap(t.up) {
			cur = t.up[:k+1][k]
		}
		if len(cur) != n {
			cur = make([]NodeID, n)
		}
		t.up = append(t.up, cur)
		prev := t.up[k-1]
		for _, v := range t.order {
			if mid := prev[v]; mid == -1 {
				cur[v] = -1
			} else {
				cur[v] = prev[mid]
			}
		}
	}
}

// Root returns the root node.
func (t *RootedTree) Root() NodeID { return t.root }

// InTree reports whether v belongs to the tree.
func (t *RootedTree) InTree(v NodeID) bool {
	return v >= 0 && v < len(t.inTree) && t.inTree[v]
}

// Nodes returns the tree's nodes in preorder.
func (t *RootedTree) Nodes() []NodeID {
	out := make([]NodeID, len(t.order))
	copy(out, t.order)
	return out
}

// Parent returns v's parent, or -1 for the root.
func (t *RootedTree) Parent(v NodeID) NodeID { return t.parentNode[v] }

// ParentEdge returns the host edge joining v to its parent, or -1.
func (t *RootedTree) ParentEdge(v NodeID) EdgeID { return t.parentEdge[v] }

// Depth returns v's hop depth below the root.
func (t *RootedTree) Depth(v NodeID) int { return t.depth[v] }

// DistToRoot returns the weighted length of the tree path root→v.
func (t *RootedTree) DistToRoot(v NodeID) float64 { return t.distRoot[v] }

// LCA returns the lowest common ancestor of u and v. Both nodes must be
// in the tree.
func (t *RootedTree) LCA(u, v NodeID) (NodeID, error) {
	if !t.InTree(u) || !t.InTree(v) {
		return 0, fmt.Errorf("%w: LCA(%d,%d) outside tree", ErrNodeOutOfRange, u, v)
	}
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := t.depth[u] - t.depth[v]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u, nil
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u = t.up[k][u]
			v = t.up[k][v]
		}
	}
	return t.parentNode[u], nil
}

// LCAAll folds LCA over a node list: LCA(x1, x2, ..., xm) as defined in
// the paper's Algorithm 2, step 10. The list must be non-empty.
func (t *RootedTree) LCAAll(nodes ...NodeID) (NodeID, error) {
	if len(nodes) == 0 {
		return 0, errors.New("graph: LCAAll of empty node list")
	}
	acc := nodes[0]
	if !t.InTree(acc) {
		return 0, fmt.Errorf("%w: LCAAll node %d outside tree", ErrNodeOutOfRange, acc)
	}
	for _, v := range nodes[1:] {
		a, err := t.LCA(acc, v)
		if err != nil {
			return 0, err
		}
		acc = a
	}
	return acc, nil
}

// PathBetween returns the unique tree path u→v as node and edge
// sequences (nodes includes both endpoints).
func (t *RootedTree) PathBetween(u, v NodeID) (nodes []NodeID, edges []EdgeID, err error) {
	return t.AppendPath(nil, nil, u, v)
}

// AppendPath is PathBetween appending to caller-owned buffers: it
// appends the path u→v to nodes and edges and returns the extended
// slices, so a caller reusing its buffers walks paths without
// allocating.
func (t *RootedTree) AppendPath(nodes []NodeID, edges []EdgeID, u, v NodeID) ([]NodeID, []EdgeID, error) {
	a, err := t.LCA(u, v)
	if err != nil {
		return nodes, edges, err
	}
	// u up to LCA.
	for at := u; at != a; at = t.parentNode[at] {
		nodes = append(nodes, at)
		edges = append(edges, t.parentEdge[at])
	}
	nodes = append(nodes, a)
	// LCA down to v: append v up to the LCA, then reverse that tail.
	n0, e0 := len(nodes), len(edges)
	for at := v; at != a; at = t.parentNode[at] {
		nodes = append(nodes, at)
		edges = append(edges, t.parentEdge[at])
	}
	slices.Reverse(nodes[n0:])
	slices.Reverse(edges[e0:])
	return nodes, edges, nil
}

// PathWeight returns the weighted length of the unique tree path u→v.
func (t *RootedTree) PathWeight(u, v NodeID) (float64, error) {
	a, err := t.LCA(u, v)
	if err != nil {
		return 0, err
	}
	return t.distRoot[u] + t.distRoot[v] - 2*t.distRoot[a], nil
}

// SubtreeNodes returns all nodes in the subtree rooted at v (including
// v itself), in preorder.
func (t *RootedTree) SubtreeNodes(v NodeID) []NodeID {
	if !t.InTree(v) {
		return nil
	}
	// children lists are not stored; derive via parent pointers over
	// the preorder, which visits every descendant after v... preorder
	// from a stack DFS does not guarantee contiguity, so walk parents.
	var out []NodeID
	for _, u := range t.order {
		if t.isAncestor(v, u) {
			out = append(out, u)
		}
	}
	return out
}

// isAncestor reports whether a is an ancestor of v (or equal to it).
func (t *RootedTree) isAncestor(a, v NodeID) bool {
	if t.depth[v] < t.depth[a] {
		return false
	}
	diff := t.depth[v] - t.depth[a]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			v = t.up[k][v]
		}
		diff >>= 1
	}
	return v == a
}

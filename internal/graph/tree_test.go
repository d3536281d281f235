package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSampleTree returns a rooted tree over 7 nodes:
//
//	    0
//	   / \
//	  1   2
//	 / \   \
//	3   4   5
//	         \
//	          6
func buildSampleTree(t *testing.T) (*Graph, *RootedTree) {
	t.Helper()
	g := New(7)
	ids := []EdgeID{
		g.MustAddEdge(0, 1, 1),
		g.MustAddEdge(0, 2, 2),
		g.MustAddEdge(1, 3, 1),
		g.MustAddEdge(1, 4, 3),
		g.MustAddEdge(2, 5, 1),
		g.MustAddEdge(5, 6, 2),
	}
	rt, err := NewRootedTree(g, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, rt
}

func TestRootedTreeBasics(t *testing.T) {
	_, rt := buildSampleTree(t)
	if rt.Root() != 0 {
		t.Fatalf("Root = %d, want 0", rt.Root())
	}
	if rt.Parent(0) != -1 {
		t.Fatalf("Parent(root) = %d, want -1", rt.Parent(0))
	}
	if rt.Parent(6) != 5 || rt.Parent(5) != 2 {
		t.Fatalf("parents of 6,5 = %d,%d, want 5,2", rt.Parent(6), rt.Parent(5))
	}
	if rt.Depth(6) != 3 || rt.Depth(0) != 0 {
		t.Fatalf("depths = %d,%d, want 3,0", rt.Depth(6), rt.Depth(0))
	}
	if rt.DistToRoot(6) != 5 { // 2+1+2
		t.Fatalf("DistToRoot(6) = %v, want 5", rt.DistToRoot(6))
	}
	if !rt.InTree(3) {
		t.Fatal("InTree(3) should be true")
	}
	if rt.InTree(-1) || rt.InTree(99) {
		t.Fatal("InTree out-of-range should be false")
	}
	if got := len(rt.Nodes()); got != 7 {
		t.Fatalf("len(Nodes) = %d, want 7", got)
	}
}

func TestRootedTreeLCA(t *testing.T) {
	_, rt := buildSampleTree(t)
	tests := []struct {
		u, v, want NodeID
	}{
		{3, 4, 1},
		{3, 6, 0},
		{5, 6, 5},
		{1, 1, 1},
		{0, 6, 0},
		{4, 1, 1},
	}
	for _, tt := range tests {
		got, err := rt.LCA(tt.u, tt.v)
		if err != nil {
			t.Fatalf("LCA(%d,%d): %v", tt.u, tt.v, err)
		}
		if got != tt.want {
			t.Fatalf("LCA(%d,%d) = %d, want %d", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestRootedTreeLCAAll(t *testing.T) {
	_, rt := buildSampleTree(t)
	got, err := rt.LCAAll(3, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("LCAAll(3,4,6) = %d, want 0", got)
	}
	got, err = rt.LCAAll(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("LCAAll(3,4) = %d, want 1", got)
	}
	if _, err := rt.LCAAll(); err == nil {
		t.Fatal("LCAAll() should error on empty input")
	}
}

func TestRootedTreePathBetween(t *testing.T) {
	_, rt := buildSampleTree(t)
	nodes, edges, err := rt.PathBetween(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{3, 1, 0, 2, 5, 6}
	if len(nodes) != len(want) {
		t.Fatalf("path = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("path = %v, want %v", nodes, want)
		}
	}
	if len(edges) != len(nodes)-1 {
		t.Fatalf("edges = %d, want %d", len(edges), len(nodes)-1)
	}
	wgt, err := rt.PathWeight(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if wgt != 7 { // 1+1+2+1+2
		t.Fatalf("PathWeight(3,6) = %v, want 7", wgt)
	}
}

func TestRootedTreeSubtreeNodes(t *testing.T) {
	_, rt := buildSampleTree(t)
	sub := rt.SubtreeNodes(2)
	want := map[NodeID]bool{2: true, 5: true, 6: true}
	if len(sub) != len(want) {
		t.Fatalf("SubtreeNodes(2) = %v, want %v", sub, want)
	}
	for _, v := range sub {
		if !want[v] {
			t.Fatalf("SubtreeNodes(2) = %v contains unexpected %d", sub, v)
		}
	}
}

func TestRootedTreeRejectsCycle(t *testing.T) {
	g := New(3)
	ids := []EdgeID{
		g.MustAddEdge(0, 1, 1),
		g.MustAddEdge(1, 2, 1),
		g.MustAddEdge(2, 0, 1),
	}
	if _, err := NewRootedTree(g, ids, 0); !errors.Is(err, ErrNotATree) {
		t.Fatalf("cycle accepted: %v", err)
	}
}

func TestRootedTreeRejectsDisconnected(t *testing.T) {
	g := New(4)
	ids := []EdgeID{
		g.MustAddEdge(0, 1, 1),
		g.MustAddEdge(2, 3, 1),
	}
	if _, err := NewRootedTree(g, ids, 0); !errors.Is(err, ErrNotATree) {
		t.Fatalf("disconnected edge set accepted: %v", err)
	}
}

func TestRootedTreeSingleNode(t *testing.T) {
	g := New(3)
	rt, err := NewRootedTree(g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.InTree(1) || rt.InTree(0) {
		t.Fatal("single-node tree membership wrong")
	}
	lca, err := rt.LCA(1, 1)
	if err != nil || lca != 1 {
		t.Fatalf("LCA(1,1) = %d,%v, want 1,nil", lca, err)
	}
}

func TestRootedTreeBadRoot(t *testing.T) {
	g := New(2)
	if _, err := NewRootedTree(g, nil, 5); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("bad root accepted: %v", err)
	}
}

// TestPropertyTreePathsConsistent builds random trees and checks that
// PathWeight equals the sum of edge weights along PathBetween, and
// that the LCA lies on the path.
func TestPropertyTreePathsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		ids := make([]EdgeID, 0, n-1)
		for v := 1; v < n; v++ {
			ids = append(ids, g.MustAddEdge(rng.Intn(v), v, rng.Float64()*5))
		}
		rt, err := NewRootedTree(g, ids, 0)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			nodes, edges, err := rt.PathBetween(u, v)
			if err != nil {
				return false
			}
			var sum float64
			for _, e := range edges {
				sum += g.Weight(e)
			}
			w, err := rt.PathWeight(u, v)
			if err != nil || math.Abs(w-sum) > 1e-9 {
				return false
			}
			a, err := rt.LCA(u, v)
			if err != nil {
				return false
			}
			found := false
			for _, nd := range nodes {
				if nd == a {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTraversalConnectivity(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	labels, count := ConnectedComponents(g)
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
	if labels[0] != labels[2] || labels[0] == labels[3] {
		t.Fatalf("labels = %v, want {0,1,2} together and {3,4} separate", labels)
	}
	if !SameComponent(g, 0, 1, 2) {
		t.Fatal("SameComponent(0,1,2) should be true")
	}
	if SameComponent(g, 0, 3) {
		t.Fatal("SameComponent(0,3) should be false")
	}
	if !SameComponent(g, 0) || !SameComponent(g) {
		t.Fatal("SameComponent with <2 nodes should be vacuously true")
	}
	order := BFSOrder(g, 0)
	if len(order) != 3 || order[0] != 0 {
		t.Fatalf("BFSOrder(0) = %v, want 3 nodes starting at 0", order)
	}
	if BFSOrder(g, 99) != nil {
		t.Fatal("BFSOrder(out of range) should be nil")
	}
}

func TestIsConnectedTrivial(t *testing.T) {
	if !IsConnected(New(0)) || !IsConnected(New(1)) {
		t.Fatal("graphs with <=1 node are vacuously connected")
	}
}

func TestRootedTreeParentEdge(t *testing.T) {
	g, rt := buildSampleTree(t)
	if rt.ParentEdge(0) != -1 {
		t.Fatalf("root parent edge = %d, want -1", rt.ParentEdge(0))
	}
	e := rt.ParentEdge(6)
	he := g.Edge(e)
	if !((he.U == 5 && he.V == 6) || (he.U == 6 && he.V == 5)) {
		t.Fatalf("ParentEdge(6) = edge {%d,%d}, want {5,6}", he.U, he.V)
	}
}

func TestRootedTreePathWeightOutside(t *testing.T) {
	_, rt := buildSampleTree(t)
	if _, err := rt.PathWeight(0, 99); err == nil {
		t.Fatal("out-of-tree PathWeight accepted")
	}
}

func TestSubtreeNodesOutside(t *testing.T) {
	_, rt := buildSampleTree(t)
	if got := rt.SubtreeNodes(99); got != nil {
		t.Fatalf("SubtreeNodes(out of tree) = %v, want nil", got)
	}
}

// TestRootedTreeResetMatchesFresh re-roots one RootedTree over a stream
// of random trees (and the occasional cycle, disconnected edge set or
// host of another size) and checks every query against a freshly built
// tree: Reset must leave nothing of the previous tree behind.
func TestRootedTreeResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reused RootedTree
	for trial := 0; trial < 300; trial++ {
		n := 40
		if trial%50 == 49 {
			n = 25 + rng.Intn(30)
		}
		g := New(n)
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n)
		ids := make([]EdgeID, 0, k)
		for i := 1; i < k; i++ {
			ids = append(ids, g.MustAddEdge(perm[rng.Intn(i)], perm[i], rng.Float64()*5))
		}
		switch {
		case k > 2 && trial%7 == 3: // close a cycle
			ids = append(ids, g.MustAddEdge(perm[0], perm[k-1], 1))
		case k > 2 && trial%7 == 5: // disconnect
			ids = ids[1:]
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		root := perm[rng.Intn(k)]
		fresh, ferr := NewRootedTree(g, ids, root)
		rerr := reused.Reset(g, ids, root)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("trial %d: fresh err %v, reset err %v", trial, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		for v := 0; v < n; v++ {
			if fresh.InTree(v) != reused.InTree(v) || fresh.Parent(v) != reused.Parent(v) ||
				fresh.ParentEdge(v) != reused.ParentEdge(v) || fresh.Depth(v) != reused.Depth(v) ||
				fresh.DistToRoot(v) != reused.DistToRoot(v) {
				t.Fatalf("trial %d: node %d differs after Reset", trial, v)
			}
		}
		nodes := fresh.Nodes()
		if got := reused.Nodes(); !equalNodes(got, nodes) {
			t.Fatalf("trial %d: preorder %v, want %v", trial, got, nodes)
		}
		for _, u := range nodes {
			if !equalNodes(reused.SubtreeNodes(u), fresh.SubtreeNodes(u)) {
				t.Fatalf("trial %d: SubtreeNodes(%d) differs", trial, u)
			}
			for _, v := range nodes {
				a1, _ := fresh.LCA(u, v)
				a2, _ := reused.LCA(u, v)
				p1, e1, _ := fresh.PathBetween(u, v)
				p2, e2, _ := reused.PathBetween(u, v)
				if a1 != a2 || !equalNodes(p1, p2) || !equalNodes(e1, e2) {
					t.Fatalf("trial %d: LCA/path(%d,%d) differs", trial, u, v)
				}
			}
		}
	}
}

func equalNodes(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRootedTreeResetDoesNotAllocate(t *testing.T) {
	g, _ := buildSampleTree(t)
	small := []EdgeID{0, 2}
	all := []EdgeID{0, 1, 2, 3, 4, 5}
	var rt RootedTree
	if err := rt.Reset(g, all, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := rt.Reset(g, small, 3); err != nil {
			t.Fatal(err)
		}
		if err := rt.Reset(g, all, 6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Reset allocates %v times per run, want 0", allocs)
	}
}

package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestDijkstraIntoMatchesFresh runs one workspace across many roots of
// many random graphs and checks each result is identical to a fresh
// Dijkstra — the workspace must leak no state between runs.
func TestDijkstraIntoMatchesFresh(t *testing.T) {
	var ws DijkstraWorkspace
	sp := new(ShortestPaths)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(40), rng.Intn(60))
		// Occasionally isolate a node so unreachable handling is
		// exercised through the reused workspace too.
		if seed%4 == 0 {
			g.AddNode()
		}
		for root := 0; root < g.NumNodes(); root++ {
			if err := ws.DijkstraInto(g, root, sp); err != nil {
				t.Fatalf("seed %d root %d: DijkstraInto: %v", seed, root, err)
			}
			want, err := Dijkstra(g, root)
			if err != nil {
				t.Fatalf("seed %d root %d: Dijkstra: %v", seed, root, err)
			}
			if !reflect.DeepEqual(sp.Dist, want.Dist) {
				t.Fatalf("seed %d root %d: Dist mismatch", seed, root)
			}
			for v := 0; v < g.NumNodes(); v++ {
				gotN, gotE, gotOK := sp.PathTo(v)
				wantN, wantE, wantOK := want.PathTo(v)
				if gotOK != wantOK || !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotE, wantE) {
					t.Fatalf("seed %d root %d target %d: PathTo mismatch:\n got %v %v %v\nwant %v %v %v",
						seed, root, v, gotN, gotE, gotOK, wantN, wantE, wantOK)
				}
				if sp.Depth(v) != want.Depth(v) {
					t.Fatalf("seed %d root %d target %d: Depth %d != %d",
						seed, root, v, sp.Depth(v), want.Depth(v))
				}
			}
		}
	}
}

// TestVisitPathEdgesMatchesPathTo checks the allocation-free edge walk
// yields PathTo's edges in reverse (target → source) order.
func TestVisitPathEdgesMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 30, 40)
	sp, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		var walked []EdgeID
		ok := sp.VisitPathEdges(v, func(e EdgeID) bool {
			walked = append(walked, e)
			return true
		})
		_, edges, wantOK := sp.PathTo(v)
		if ok != wantOK {
			t.Fatalf("target %d: ok %v != %v", v, ok, wantOK)
		}
		for i, j := 0, len(walked)-1; i < j; i, j = i+1, j-1 {
			walked[i], walked[j] = walked[j], walked[i]
		}
		if len(walked) != len(edges) {
			t.Fatalf("target %d: %d edges walked, want %d", v, len(walked), len(edges))
		}
		for i := range walked {
			if walked[i] != edges[i] {
				t.Fatalf("target %d: edge %d: %d != %d", v, i, walked[i], edges[i])
			}
		}
	}
}

// TestSteinerKMBWithSPsMatchesSteinerKMB feeds precomputed per-terminal
// shortest paths (the planner's sharing pattern) through one reused
// scratch and checks every tree is byte-identical to the scratch-free
// SteinerKMB — including with duplicated terminals, whose trees must
// dedup in lockstep.
func TestSteinerKMBWithSPsMatchesSteinerKMB(t *testing.T) {
	scratch := new(SteinerScratch)
	var ws DijkstraWorkspace
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, rng.Intn(70))
		// Precompute one tree per node, as the planner shares them.
		sps := make([]*ShortestPaths, n)
		for v := 0; v < n; v++ {
			sps[v] = new(ShortestPaths)
			if err := ws.DijkstraInto(g, v, sps[v]); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 10; trial++ {
			k := 1 + rng.Intn(6)
			terms := make([]NodeID, k)
			termSPs := make([]*ShortestPaths, k)
			for i := range terms {
				terms[i] = rng.Intn(n)
				termSPs[i] = sps[terms[i]]
			}
			if trial%3 == 0 && k > 1 { // force a duplicate
				terms[k-1] = terms[0]
				termSPs[k-1] = termSPs[0]
			}
			got, err := SteinerKMBWithSPs(g, terms, termSPs, scratch)
			if err != nil {
				t.Fatalf("seed %d trial %d: WithSPs: %v", seed, trial, err)
			}
			want, err := SteinerKMB(g, terms)
			if err != nil {
				t.Fatalf("seed %d trial %d: SteinerKMB: %v", seed, trial, err)
			}
			if !reflect.DeepEqual(got.Terminals, want.Terminals) {
				t.Fatalf("seed %d trial %d: terminals %v != %v", seed, trial, got.Terminals, want.Terminals)
			}
			if len(got.EdgeIDs) != len(want.EdgeIDs) || got.Weight != want.Weight {
				t.Fatalf("seed %d trial %d: tree mismatch: %v (w=%v) != %v (w=%v)",
					seed, trial, got.EdgeIDs, got.Weight, want.EdgeIDs, want.Weight)
			}
			for i := range got.EdgeIDs {
				if got.EdgeIDs[i] != want.EdgeIDs[i] {
					t.Fatalf("seed %d trial %d: edge %d: %d != %d",
						seed, trial, i, got.EdgeIDs[i], want.EdgeIDs[i])
				}
			}
		}
	}
}

// TestSteinerKMBWithSPsValidation covers the argument contract: length
// mismatch and wrong-root trees must be rejected.
func TestSteinerKMBWithSPsValidation(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	sp0, _ := Dijkstra(g, 0)
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp0}, nil); err == nil {
		t.Fatal("wrong-root tree accepted")
	}
	sp2, _ := Dijkstra(g, 2)
	tree, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp2}, nil)
	if err != nil || len(tree.EdgeIDs) != 2 {
		t.Fatalf("valid call failed: %v %v", tree, err)
	}
}

// TestSteinerKMBWithExtraMatchesFullTrees checks the tree-less extra
// terminal against the full-tree call it replaces: on random graphs
// with continuous weights, SteinerKMBWithExtra(terms, sps, v) must
// return the same edges, weight and terminal set as SteinerKMBWithSPs
// with v's own tree at index 1 (the order Online_CP used to build its
// terminals in). One scratch serves every call, and v sometimes
// repeats a terminal, so the deduplicated case is covered too.
func TestSteinerKMBWithExtraMatchesFullTrees(t *testing.T) {
	scratch := new(SteinerScratch)
	sortedTerms := func(st *SteinerTree) []NodeID {
		out := append([]NodeID(nil), st.Terminals...)
		sort.Ints(out)
		return out
	}
	dedups := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(36)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		terms := make([]NodeID, 1+rng.Intn(5))
		sps := make([]*ShortestPaths, len(terms))
		for i := range terms {
			terms[i] = rng.Intn(n)
			sps[i], _ = Dijkstra(g, terms[i])
		}
		v := rng.Intn(n)
		if seed%5 == 0 {
			v = terms[rng.Intn(len(terms))]
		}
		for _, term := range terms {
			if term == v {
				dedups++
				break
			}
		}
		spV, _ := Dijkstra(g, v)
		fullTerms := append([]NodeID{terms[0], v}, terms[1:]...)
		fullSPs := append([]*ShortestPaths{sps[0], spV}, sps[1:]...)
		want, err := SteinerKMBWithSPs(g, fullTerms, fullSPs, nil)
		if err != nil {
			t.Fatalf("seed %d: full trees: %v", seed, err)
		}
		got, err := SteinerKMBWithExtra(g, terms, sps, v, scratch)
		if err != nil {
			t.Fatalf("seed %d: extra terminal: %v", seed, err)
		}
		if !reflect.DeepEqual(got.EdgeIDs, want.EdgeIDs) || got.Weight != want.Weight {
			t.Fatalf("seed %d: edges %v weight %v, want %v weight %v",
				seed, got.EdgeIDs, got.Weight, want.EdgeIDs, want.Weight)
		}
		if gotT, wantT := sortedTerms(got), sortedTerms(want); !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("seed %d: terminals %v, want %v", seed, gotT, wantT)
		}
		// Interleave an unrelated run so the reused scratch carries
		// stale state into the next extra-terminal call.
		if _, err := SteinerKMBScratch(g, []NodeID{0, n - 1}, scratch); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if dedups == 0 {
		t.Fatal("no case had the extra terminal repeat a terminal")
	}

	// An unreachable extra terminal disconnects the closure.
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	sp0, _ := Dijkstra(g, 0)
	sp2, _ := Dijkstra(g, 2)
	terms, sps := []NodeID{0, 2}, []*ShortestPaths{sp0, sp2}
	if _, err := SteinerKMBWithExtra(g, terms, sps, 3, scratch); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("unreachable extra terminal: err = %v, want ErrDisconnected", err)
	}
	for _, v := range []NodeID{-1, 4} {
		if _, err := SteinerKMBWithExtra(g, terms, sps, v, scratch); !errors.Is(err, ErrNodeOutOfRange) {
			t.Fatalf("extra terminal %d: err = %v, want ErrNodeOutOfRange", v, err)
		}
	}
	st, err := SteinerKMBWithExtra(g, terms, sps, 1, scratch)
	if err != nil || len(st.EdgeIDs) != 2 || len(st.Terminals) != 3 {
		t.Fatalf("reachable extra terminal after errors: %+v, %v", st, err)
	}
}

// TestSteinerScratchReuseAcrossGraphs runs one scratch across graphs of
// different sizes to shake out stale-capacity bugs (a larger graph
// followed by a smaller one and vice versa).
func TestSteinerScratchReuseAcrossGraphs(t *testing.T) {
	scratch := new(SteinerScratch)
	sizes := []int{40, 8, 60, 5, 25}
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		g := randomConnectedGraph(rng, n, n)
		terms := []NodeID{0, n / 2, n - 1}
		got, err := SteinerKMBScratch(g, terms, scratch)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		want, err := SteinerKMB(g, terms)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !reflect.DeepEqual(got.EdgeIDs, want.EdgeIDs) || got.Weight != want.Weight {
			t.Fatalf("size %d: %v != %v", n, got.EdgeIDs, want.EdgeIDs)
		}
	}
}

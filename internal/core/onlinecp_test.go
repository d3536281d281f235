package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// TestOnlineCPIdleFartherServerWins pins the winner on a hand-built
// line 0 - 1 - 2 - 3 with servers at 1 and 3, source 0 and destination
// 2. Every link is idle, so every absolute link cost c_e is 0; server 1
// carries a sliver of load and is listed first. Its selection cost is
// its small but positive c_v, while server 3, farther from the source,
// costs 0 in every term and must win. A bound that compared the
// marginal work-graph distance to server 3 (positive even on idle
// links) with the incumbent's absolute selection cost would drop
// server 3 before scoring it.
func TestOnlineCPIdleFartherServerWins(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	topo := &topology.Topology{Name: "line-4", Graph: g, Servers: 2}
	cfg := sdn.Config{
		BandwidthCapRangeMbps: [2]float64{1000, 1000},
		ComputeCapRangeMHz:    [2]float64{4000, 4000},
		LinkUnitCost:          [2]float64{1, 1},
		ServerUnitCost:        [2]float64{0.1, 0.1},
	}
	nw, err := sdn.NewNetworkWithServers(topo, cfg, []graph.NodeID{1, 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Allocate(sdn.Allocation{Servers: map[graph.NodeID]float64{1: 0.1}}); err != nil {
		t.Fatal(err)
	}
	model := DefaultCostModel(nw.NumNodes())
	loaded := model.ServerCost(nw, 1)
	req := &multicast.Request{ID: 1, Source: 0, Destinations: []graph.NodeID{2},
		BandwidthMbps: 100, Chain: nfv.MustChain(nfv.Firewall)}

	// The scenario only means something if the marginal distance to the
	// far server exceeds the loaded server's whole selection cost.
	marginal := 3 * (math.Pow(model.Beta, req.BandwidthMbps/1000) - 1)
	if !(loaded > 0 && marginal > loaded) {
		t.Fatalf("scenario too weak: c_v(1) = %v, marginal dist(0, 3) = %v", loaded, marginal)
	}

	p, err := NewCPPlanner(model)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Plan(nw, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Servers) != 1 || sol.Servers[0] != 3 {
		t.Fatalf("Online_CP chose servers %v, want [3]", sol.Servers)
	}
	if sol.SelectionCost != 0 {
		t.Fatalf("selection cost = %v, want 0 on idle links and an idle server", sol.SelectionCost)
	}
}

// TestCPPlanDijkstraCount pins the shortest-path work of one Online_CP
// plan on a cold work graph: one Dijkstra rooted at the source and one
// per distinct destination, however many candidate servers are scored.
// Each candidate joins KMB as a terminal whose closure row is read from
// those trees.
func TestCPPlanDijkstraCount(t *testing.T) {
	nw, pool := cpPlanCorpus(t)
	scored := 0
	for _, req := range pool {
		p, err := NewCPPlanner(DefaultCostModel(nw.NumNodes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.PlanContext(context.Background(), nw, req, nil); err != nil && !IsRejection(err) {
			t.Fatal(err)
		}
		w, spc := p.view(nw, req) // the plan's own cached entry
		if _, _, _, builds := p.cache.stats(); builds != 1 {
			t.Fatalf("request %d: %d work-graph builds, want 1", req.ID, builds)
		}
		roots := map[graph.NodeID]bool{req.Source: true}
		for _, d := range req.Destinations {
			roots[d] = true
		}
		if got := spc.buildCount(); got != uint64(len(roots)) {
			t.Fatalf("request %d: %d Dijkstras for 1 source + %d distinct destinations (%d candidate servers)",
				req.ID, got, len(roots)-1, len(w.servers))
		}
		if len(w.servers) > 1 {
			scored++
		}
	}
	if scored == 0 {
		t.Fatal("no request had more than one candidate server")
	}
}

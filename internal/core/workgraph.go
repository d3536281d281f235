package core

import (
	"fmt"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// workGraph is a (possibly filtered) re-weighted view of the network
// graph an algorithm runs on. Its edge IDs are local; toHost maps them
// back to network edge IDs for pricing and allocation.
//
// Thread safety: a workGraph is immutable after buildWorkGraph
// returns (explicit-auxiliary evaluation clones g before mutating),
// so it may be read from any number of goroutines concurrently.
type workGraph struct {
	g        *graph.Graph
	toHost   []graph.EdgeID
	fromHost []int32        // host edge → local edge, -1 when filtered out
	servers  []graph.NodeID // eligible servers in this view
}

// hostEdge maps a local edge ID back to the network's edge ID.
func (w *workGraph) hostEdge(local graph.EdgeID) graph.EdgeID { return w.toHost[local] }

// buildWorkGraph constructs the algorithm's working view of nw for
// req. When capacitated is true it keeps only links with residual
// bandwidth >= b_k and servers with residual computing >= C_v(SC_k)
// (the Appro_Multi_Cap / online residual-network construction);
// otherwise it keeps everything. weight prices a network edge for the
// algorithm's objective.
func buildWorkGraph(
	nw *sdn.Network,
	req *multicast.Request,
	capacitated bool,
	weight func(host graph.EdgeID) float64,
) *workGraph {
	hg := nw.Graph()
	n := hg.NumNodes()
	g := graph.New(n)
	var toHost []graph.EdgeID
	fromHost := make([]int32, hg.NumEdges())
	for e := 0; e < hg.NumEdges(); e++ {
		fromHost[e] = -1
		if !nw.LinkUp(e) {
			continue // failed links are physically unusable
		}
		if capacitated && nw.ResidualBandwidth(e) < req.BandwidthMbps {
			continue
		}
		he := hg.Edge(e)
		fromHost[e] = int32(g.MustAddEdge(he.U, he.V, weight(e)))
		toHost = append(toHost, e)
	}
	demand := req.ComputeDemandMHz()
	var servers []graph.NodeID
	for _, v := range nw.Servers() {
		if !nw.ServerUp(v) {
			continue // failed servers cannot host new VMs
		}
		if capacitated && nw.ResidualCompute(v) < demand {
			continue
		}
		servers = append(servers, v)
	}
	return &workGraph{g: g, toHost: toHost, fromHost: fromHost, servers: servers}
}

// addHostPath appends a directed walk (local IDs) to a pseudo tree,
// translating edges to host IDs.
func (w *workGraph) addHostPath(
	t *multicast.PseudoTree, nodes []graph.NodeID, edges []graph.EdgeID, processed bool,
) error {
	if len(nodes) != len(edges)+1 {
		return fmt.Errorf("core: path shape mismatch (%d nodes, %d edges)", len(nodes), len(edges))
	}
	for i, e := range edges {
		t.AddHop(multicast.Hop{From: nodes[i], To: nodes[i+1], Edge: w.toHost[e], Processed: processed})
	}
	return nil
}

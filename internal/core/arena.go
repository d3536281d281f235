package core

import (
	"nfvmcast/internal/graph"
)

// PlanArena owns the per-plan scratch memory of the online planners:
// the Dijkstra workspace and Steiner scratch of the per-candidate KMB
// runs, the rooted tree each candidate is scored on, the hoisted
// terminal, LCA argument and tree-path slices, and the closure
// evaluator's per-candidate buffers. One arena serves one Plan call at
// a time; the admission engine keeps one per planner worker so
// concurrent planners never share scratch, and arena-less Plan calls
// draw from a pool. The zero value is ready to use.
//
// Arenas only relocate transient state — every planner result is
// identical with or without one.
type PlanArena struct {
	ws      graph.DijkstraWorkspace
	steiner graph.SteinerScratch
	eval    evalScratch

	rt      graph.RootedTree // the candidate Steiner tree, re-rooted per candidate
	terms   []graph.NodeID
	sps     []*graph.ShortestPaths
	dstSPs  []*graph.ShortestPaths
	lcaArgs []graph.NodeID

	pathNodes []graph.NodeID // tree path being realised into a pseudo tree
	pathEdges []graph.EdgeID
}

// NewPlanArena returns an empty arena. Arenas grow to workload size on
// first use and are reused across requests.
func NewPlanArena() *PlanArena { return &PlanArena{} }

// refinePayload maps a pruning-graph edge back to what it represents:
// a real work-graph edge, or the virtual edge of an auxiliary server.
type refinePayload struct {
	real    graph.EdgeID
	virtual graph.NodeID // -1 when real
}

// evalScratch is the per-candidate scratch of the closure evaluator
// and the tree decomposition: metric closures, MST workspaces, the
// stamped expansion-union buffers, the pruning graph of KMB steps 4-5
// and the component-orientation state of decompose. Appro_Multi's
// candidate evaluation hands each worker goroutine its own instance;
// the online planners keep one inside their PlanArena. The zero value
// is ready to use.
type evalScratch struct {
	closure    graph.Graph // metric closure over {virtual source} ∪ D_k
	closureMST graph.MST
	mst        graph.MSTWorkspace

	entry []graph.NodeID // per-destination cheapest entry server

	gen     uint32   // stamp generation for the union/visited sets
	edgeGen []uint32 // work-graph edge -> generation last added to union
	nodeGen []uint32 // work-graph node -> generation last marked
	union   []graph.EdgeID
	virt    []graph.NodeID

	tg        graph.Graph // pruning graph over n+1 nodes (KMB steps 4-5)
	payloads  []refinePayload
	forest    graph.MST
	isTerm    []bool
	deg       []int32
	incident  [][]int32
	alive     []bool
	queue     []graph.NodeID
	servers   []graph.NodeID
	realEdges []graph.EdgeID

	adj    [][]graph.Neighbor // decompose: component adjacency
	adjGen []uint32           // decompose: node -> generation adj was truncated
	visGen []uint32           // decompose: node -> generation visited
	stack  []graph.NodeID
}

// ensure sizes the stamp arrays for a work graph with n nodes and m
// edges; fresh arrays are zero-stamped and never match a live
// generation.
func (s *evalScratch) ensure(n, m int) {
	if cap(s.nodeGen) < n {
		s.nodeGen = make([]uint32, n)
		s.adjGen = make([]uint32, n)
		s.visGen = make([]uint32, n)
	} else {
		s.nodeGen = s.nodeGen[:n]
		s.adjGen = s.adjGen[:n]
		s.visGen = s.visGen[:n]
	}
	if cap(s.adj) < n {
		grown := make([][]graph.Neighbor, n)
		copy(grown, s.adj[:cap(s.adj)])
		s.adj = grown
	} else {
		s.adj = s.adj[:n]
	}
	if cap(s.edgeGen) < m {
		s.edgeGen = make([]uint32, m)
	} else {
		s.edgeGen = s.edgeGen[:m]
	}
}

// nextGen advances the stamp generation, invalidating every stamped
// set in O(1); on uint32 wrap the stamp arrays are cleared so stale
// stamps cannot alias a live generation.
func (s *evalScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.edgeGen {
			s.edgeGen[i] = 0
		}
		for i := range s.nodeGen {
			s.nodeGen[i] = 0
		}
		for i := range s.adjGen {
			s.adjGen[i] = 0
		}
		for i := range s.visGen {
			s.visGen[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}

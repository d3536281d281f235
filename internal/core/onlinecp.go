package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// OnlineCP implements Algorithm 2 (Online_CP): online admission of
// NFV-enabled multicast requests with K = 1 under the exponential cost
// model, with competitive ratio O(log |V|). Construct one per request
// sequence and feed arrivals to Admit; admitted requests' resources
// are allocated on the network immediately. It pairs the pure
// CPPlanner with the shared Admitter commit machinery.
type OnlineCP struct {
	*Admitter
}

// NewOnlineCP returns an admitter over nw with the given cost model.
func NewOnlineCP(nw *sdn.Network, model CostModel) (*OnlineCP, error) {
	p, err := NewCPPlanner(model)
	if err != nil {
		return nil, err
	}
	return &OnlineCP{Admitter: NewAdmitter(nw, p)}, nil
}

// CPPlanner is the pure planning half of Online_CP: the cheapest
// feasible pseudo-multicast tree for a request under the exponential
// weights and the admission thresholds, with no side effects on the
// network view it plans against.
//
// A planner instance serves one logical network and its read-only
// clones (the same constraint SPStaticPlanner documents): it memoizes
// residual work graphs keyed on the network's structure and mutation
// versions, which identify a residual state only within one network
// family.
type CPPlanner struct {
	model  CostModel
	cache  workGraphCache
	arenas sync.Pool // *PlanArena for arena-less Plan calls
}

// NewCPPlanner returns an Online_CP planner with the given cost model.
func NewCPPlanner(model CostModel) (*CPPlanner, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	p := &CPPlanner{model: model}
	// Residual view of the network. Steiner-tree construction prices
	// each link with the request's marginal exponential cost — the
	// weight increase its own b_k causes. On an idle network the
	// paper's w_e(k) is 0 on every link, which would leave tree
	// selection indifferent between short and long trees; the
	// marginal form ≈ (b_k/B_e)·ln β at low load steers requests
	// onto short, high-capacity trees and converges to w_e(k) as
	// links fill. Admission thresholds still use the paper's
	// pre-allocation weights. The recipe lives on the cache so
	// incremental patches re-price edges exactly as a cold build
	// would.
	p.cache.capacitated = true
	p.cache.weight = func(nw *sdn.Network, req *multicast.Request, e graph.EdgeID) float64 {
		utilAfter := 1 - (nw.ResidualBandwidth(e)-req.BandwidthMbps)/nw.BandwidthCap(e)
		return math.Pow(p.model.Beta, utilAfter) - 1
	}
	return p, nil
}

// Name identifies the algorithm.
func (p *CPPlanner) Name() string { return "Online_CP" }

// view returns the residual work graph and shortest-path cache for
// (nw, req) — cached, incrementally patched from a neighbouring
// residual epoch, or cold-built, whichever the delta admits (see
// workGraphCache).
func (p *CPPlanner) view(nw *sdn.Network, req *multicast.Request) (*workGraph, *spCache) {
	return p.cache.acquire(nw, req)
}

// Plan computes the cheapest feasible pseudo-multicast tree for req
// under the exponential weights and the admission thresholds.
func (p *CPPlanner) Plan(nw *sdn.Network, req *multicast.Request) (*Solution, error) {
	return p.PlanContext(context.Background(), nw, req, nil)
}

// PlanWith is Plan with a caller-owned scratch arena (see PlanArena);
// the engine hands each planner worker its own so concurrent plans
// never share scratch. The result is identical to Plan.
func (p *CPPlanner) PlanWith(nw *sdn.Network, req *multicast.Request, arena *PlanArena) (*Solution, error) {
	return p.PlanContext(context.Background(), nw, req, arena)
}

// PlanContext is PlanWith with cancellation: ctx is checked between
// candidate servers, so a canceled plan aborts after at most one more
// Steiner construction. Results are identical to PlanWith whenever ctx
// stays live.
func (p *CPPlanner) PlanContext(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, arena *PlanArena,
) (*Solution, error) {
	if arena == nil {
		pooled, _ := p.arenas.Get().(*PlanArena)
		if pooled == nil {
			pooled = NewPlanArena()
		}
		defer p.arenas.Put(pooled)
		arena = pooled
	}
	if err := validateInput(nw, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	w, spc := p.view(nw, req)
	if len(w.servers) == 0 {
		return nil, fmt.Errorf("%w: %w: %0.f MHz demanded",
			ErrRejected, ErrComputeExhausted, req.ComputeDemandMHz())
	}

	// KMB needs one shortest-path tree per terminal, and every
	// candidate server shares the terminals {s_k} ∪ D_k — so the
	// source- and destination-rooted Dijkstras run once per request
	// (through the epoch cache: once per residual state) instead of
	// once per candidate, and each candidate only adds its own root.
	spSrc, err := spc.fromWith(req.Source, &arena.ws)
	if err != nil {
		return nil, err
	}
	arena.dstSPs = arena.dstSPs[:0]
	dMax := 0.0 // farthest destination from the source
	for _, d := range req.Destinations {
		spD, derr := spc.fromWith(d, &arena.ws)
		if derr != nil {
			return nil, derr
		}
		arena.dstSPs = append(arena.dstSPs, spD)
		if dd := spSrc.Dist[d]; dd > dMax {
			dMax = dd
		}
	}

	var (
		bestSelection = graph.Infinity
		bestTree      *multicast.PseudoTree
		bestServer    = graph.NodeID(-1)
	)
	for _, v := range w.servers {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		// Threshold (a): overloaded servers are not considered
		// (Algorithm 2, step 7).
		if p.model.ServerWeight(nw, v) >= p.model.SigmaV {
			continue
		}
		// Admissible pre-KMB bound: any Steiner tree over
		// {s_k, v} ∪ D_k contains a path s_k→v and a path to the
		// farthest destination, so its cost is at least
		// max(dist(s,v), max_d dist(s,d)); adding the server cost
		// lower-bounds the selection cost before running KMB at all.
		// A pruned candidate satisfies sel >= lower0 >= bestSelection
		// and would lose the strict `sel < bestSelection` comparison,
		// so the chosen server and tree are bit-identical with or
		// without the pruning (spSrc.Dist[v] = Infinity reproduces the
		// KMB-unreachable `continue`).
		if lower0 := maxf(spSrc.Dist[v], dMax) + p.model.ServerCost(nw, v); lower0 >= bestSelection {
			continue
		}
		spV, verr := spc.fromWith(v, &arena.ws)
		if verr != nil {
			continue
		}
		arena.terms = append(arena.terms[:0], req.Source, v)
		arena.terms = append(arena.terms, req.Destinations...)
		arena.sps = append(arena.sps[:0], spSrc, spV)
		arena.sps = append(arena.sps, arena.dstSPs...)
		st, err := graph.SteinerKMBWithSPs(w.g, arena.terms, arena.sps, &arena.steiner)
		if err != nil {
			continue // this server is cut off in the residual network
		}
		// Threshold (b): reject trees over overloaded links
		// (Algorithm 2, step 9). We apply the threshold per link:
		// admission requires w_e(k) < σ_e on every tree link, the
		// bound Lemma 1 needs, and a rejection still implies
		// Σ_e w_e(k) >= σ_e as Lemma 2 requires. (Summing over the
		// tree instead would cap average link utilisation near
		// log_β(σ_e/|T|), rejecting most requests long before the
		// network fills.)
		overloaded := false
		for _, e := range st.EdgeIDs {
			if p.model.LinkWeight(nw, w.hostEdge(e)) >= p.model.SigmaE {
				overloaded = true
				break
			}
		}
		if overloaded {
			continue
		}
		// Selection cost (Algorithm 2, step 12):
		// cost(k) = c(T) + c_v(SC_k) + c(p_{v,u}) in absolute
		// exponential costs. The back-tracking term c(p_{v,u}) is a sum
		// of non-negative link costs, so c(T) + c_v(SC_k) lower-bounds
		// the selection cost — candidates that cannot beat the incumbent
		// skip the back-tracking walk entirely. A skipped candidate's
		// true cost satisfies sel >= lower >= bestSelection, so it would
		// have lost the strict `sel < bestSelection` comparison anyway:
		// the chosen server and tree are bit-identical with or without
		// the pruning.
		var cT float64
		for _, e := range st.EdgeIDs {
			cT += p.model.LinkCost(nw, w.hostEdge(e))
		}
		lower := cT + p.model.ServerCost(nw, v)
		if lower >= bestSelection {
			continue
		}
		// Candidate scoring without realisation: only the incumbent
		// needs its pseudo tree, so c(p_{v,u}) is summed on the arena's
		// re-rooted Steiner tree by walking parent edges v→u, the order
		// PathBetween(v, u) lists them in, and the tree is built only
		// when the candidate takes the lead.
		u, err := arena.rootCandidate(w, req, v, st)
		if err != nil {
			continue
		}
		var retCost float64
		for at := v; at != u; at = arena.rt.Parent(at) {
			retCost += p.model.LinkCost(nw, w.hostEdge(arena.rt.ParentEdge(at)))
		}
		sel := lower + retCost
		if sel >= bestSelection {
			continue
		}
		tree, err := realizeSingleServer(w, req, v, u, arena)
		if err != nil {
			continue
		}
		bestSelection, bestTree, bestServer = sel, tree, v
	}
	if bestTree == nil {
		return nil, fmt.Errorf("%w: %w: no admissible server/tree",
			ErrRejected, ErrThresholdExceeded)
	}
	return &Solution{
		Request:         req,
		Tree:            bestTree,
		Servers:         []graph.NodeID{bestServer},
		OperationalCost: OperationalCost(nw, req, bestTree),
		SelectionCost:   bestSelection,
	}, nil
}

// rootCandidate re-roots the Steiner tree st over {s_k, v} ∪ D_k at the
// source in the arena's RootedTree and returns u = LCA(v, d_1, ..., d_m),
// the node the processed stream back-tracks to from server v (Algorithm
// 2, step 10). The rooted tree stays valid until the arena's next
// rootCandidate.
func (a *PlanArena) rootCandidate(
	w *workGraph, req *multicast.Request, v graph.NodeID, st *graph.SteinerTree,
) (graph.NodeID, error) {
	if err := a.rt.Reset(w.g, st.EdgeIDs, req.Source); err != nil {
		return 0, err
	}
	a.lcaArgs = append(a.lcaArgs[:0], v)
	a.lcaArgs = append(a.lcaArgs, req.Destinations...)
	return a.rt.LCAAll(a.lcaArgs...)
}

// realizeSingleServer turns the Steiner tree over {s_k, v} ∪ D_k that
// rootCandidate left in the arena, with u = LCA(v, d_1, ..., d_m), into
// the pseudo tree of paper §V.B: unprocessed traffic follows the tree
// path s_k→v; processed traffic serves v's subtree directly and
// back-tracks from v to u for the remaining destinations. Shared by
// CPPlanner.PlanContext and RepairReroute so a repaired tree has exactly
// the structure a fresh plan would produce.
func realizeSingleServer(
	w *workGraph, req *multicast.Request, v, u graph.NodeID, arena *PlanArena,
) (*multicast.PseudoTree, error) {
	tree := multicast.NewPseudoTree(req.Source, req.Destinations, []graph.NodeID{v})
	rt := &arena.rt
	addPath := func(from, to graph.NodeID, processed bool) error {
		var err error
		arena.pathNodes, arena.pathEdges, err = rt.AppendPath(arena.pathNodes[:0], arena.pathEdges[:0], from, to)
		if err != nil {
			return err
		}
		return w.addHostPath(tree, arena.pathNodes, arena.pathEdges, processed)
	}

	// Unprocessed: source down the tree to the server.
	if err := addPath(req.Source, v, false); err != nil {
		return nil, err
	}
	// Processed: back-track v → u, then fan out u → d and v → d.
	if err := addPath(v, u, true); err != nil {
		return nil, err
	}
	for _, d := range req.Destinations {
		start := u
		if onPath, perr := rt.LCA(v, d); perr == nil && onPath == v {
			start = v // d lies in v's subtree: serve it directly
		}
		if err := addPath(start, d, true); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

// IsRejection reports whether err represents an admission-policy
// rejection (as opposed to an input error).
func IsRejection(err error) bool { return errors.Is(err, ErrRejected) }

// maxf is math.Max without the NaN/signed-zero ceremony — distances
// here are non-negative and never NaN.
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

package core

import (
	"fmt"
	"sort"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Local repair: after a link or server failure severs an admitted
// session's pseudo-multicast tree, RepairReroute re-routes the whole
// session with its server placement pinned. With the VM already placed
// that is a single Steiner construction over {s_k, v} ∪ D_k on the
// residual network — one KMB run instead of the one-per-candidate
// sweep a full re-plan costs — so a recovery pass over many sessions
// stays fast. The recovery driver (internal/recover) accepts the
// result only when its operational cost stays within γ× the original
// tree's; otherwise it falls back to the full planner path.

// RepairReroute plans a replacement tree for req with the serving node
// pinned to server (the placement of the damaged session). It plans on
// the capacitated residual view — the caller must have released the
// damaged session's allocation first, or the session's own leftovers
// will be double-counted against it. Only single-server placements can
// be re-routed locally; multi-server sessions take the re-plan path.
// The returned solution is not yet allocated.
//
// Infeasibility comes back as the usual sentinels (ErrComputeExhausted,
// ErrUnreachable, sdn.ErrServerDown) without an ErrRejected wrap: a
// failed local repair is a fallback trigger, not an admission decision.
func RepairReroute(
	nw *sdn.Network, req *multicast.Request, server graph.NodeID, arena *PlanArena,
) (*Solution, error) {
	if arena == nil {
		arena = NewPlanArena()
	}
	if err := validateInput(nw, req); err != nil {
		return nil, err
	}
	if !nw.ServerUp(server) {
		return nil, fmt.Errorf("%w: pinned server %d", sdn.ErrServerDown, server)
	}
	if nw.ResidualCompute(server) < req.ComputeDemandMHz() {
		return nil, fmt.Errorf("%w: pinned server %d", ErrComputeExhausted, server)
	}

	// Residual view priced by the operational cost the repair should
	// keep low: b_k·c_e per link, the same objective Appro_Multi
	// minimises per candidate.
	w := buildWorkGraph(nw, req, true, func(e graph.EdgeID) float64 {
		return nw.LinkUnitCost(e) * req.BandwidthMbps
	})

	arena.terms = append(arena.terms[:0], req.Source, server)
	arena.terms = append(arena.terms, req.Destinations...)
	arena.sps = arena.sps[:0]
	for _, t := range arena.terms {
		sp := new(graph.ShortestPaths)
		if err := arena.ws.DijkstraInto(w.g, t, sp); err != nil {
			return nil, err
		}
		arena.sps = append(arena.sps, sp)
	}
	st, err := graph.SteinerKMBWithSPs(w.g, arena.terms, arena.sps, &arena.steiner)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	u, err := arena.rootCandidate(w, req, server, st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	tree, err := realizeSingleServer(w, req, server, u, arena)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return &Solution{
		Request:         req,
		Tree:            tree,
		Servers:         []graph.NodeID{server},
		OperationalCost: OperationalCost(nw, req, tree),
		SelectionCost:   st.Weight,
	}, nil
}

// The Admitter hooks of the recovery workflow. Recovery runs on the
// engine's writer goroutine, which owns the Admitter, so these follow
// the same single-caller rule as the rest of the type.

// AffectedLive returns the IDs of live sessions whose allocation
// touches a failed resource, sorted ascending — the deterministic
// repair order of a recovery pass.
func (a *Admitter) AffectedLive() []int {
	var ids []int
	for id, alloc := range a.lives.byID {
		if a.nw.AffectedBy(alloc) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// LiveSolution returns the solution currently realising a live
// session, or false when the ID is not admitted.
func (a *Admitter) LiveSolution(reqID int) (*Solution, bool) {
	sol, ok := a.lives.solBy[reqID]
	return sol, ok
}

// ReleaseLive returns a live session's resources to the pool while
// keeping the session recorded — the first step of a repair, so the
// replacement tree plans against residuals that include the freed
// capacity. The caller must follow up with Rebind (repair succeeded)
// or DropLive (session shed); a Depart in between would double-release.
func (a *Admitter) ReleaseLive(reqID int) error {
	alloc, ok := a.lives.byID[reqID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRequest, reqID)
	}
	return a.nw.Release(alloc)
}

// Rebind commits a repaired solution for a live session whose previous
// allocation was returned by ReleaseLive: it allocates the new tree on
// the network and re-records the session so a later Depart releases
// the replacement bundle. The admission counters do not move — the
// session was already admitted.
func (a *Admitter) Rebind(reqID int, sol *Solution) error {
	if _, ok := a.lives.byID[reqID]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRequest, reqID)
	}
	if sol == nil || sol.Request == nil || sol.Tree == nil {
		return fmt.Errorf("core: rebind %d with incomplete solution", reqID)
	}
	alloc := AllocationFor(sol.Request, sol.Tree)
	if err := a.nw.Allocate(alloc); err != nil {
		return err
	}
	a.lives.byID[reqID] = alloc
	a.lives.solBy[reqID] = sol
	return nil
}

// DropLive removes a session from the live table without releasing
// resources — the shed path, where ReleaseLive already returned them
// and no replacement could be hosted. The departure counters do not
// move; the observability layer records the shed separately.
func (a *Admitter) DropLive(reqID int) error {
	if _, ok := a.lives.byID[reqID]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRequest, reqID)
	}
	delete(a.lives.byID, reqID)
	delete(a.lives.solBy, reqID)
	return nil
}

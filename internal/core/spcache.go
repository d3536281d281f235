package core

import (
	"sync"

	"nfvmcast/internal/graph"
)

// spCache memoizes single-source shortest-path trees per root over one
// immutable work graph, so evaluation paths that revisit a root (engine
// re-plans, requests that share a residual state, and the static
// planner's cross-request reuse) share one Dijkstra instead of
// recomputing it. Online_CP roots trees only at the source and the
// destinations — candidate servers read their distances from those —
// so an entry holds 1 + |D_k| trees, not one per candidate.
// graph.ShortestPaths is immutable after construction, so cached trees
// may be shared freely.
//
// The cache is safe for concurrent use. Misses are single-flighted:
// concurrent requests for the same root block on one computation
// instead of duplicating it — Dijkstra over the work graph is the
// dominant cost of a plan, so a duplicated build wastes exactly the
// work the cache exists to save.
type spCache struct {
	g *graph.Graph

	mu       sync.Mutex
	byRoot   map[graph.NodeID]*graph.ShortestPaths
	inflight map[graph.NodeID]*spCall
	builds   uint64 // cold Dijkstra runs (not repairs, not hits)
}

// spCall is one in-flight Dijkstra build another goroutine may wait on.
type spCall struct {
	done chan struct{}
	sp   *graph.ShortestPaths
	err  error
}

func newSPCache(g *graph.Graph) *spCache {
	return &spCache{g: g, byRoot: make(map[graph.NodeID]*graph.ShortestPaths)}
}

// from returns the shortest-path tree rooted at v, computing and
// memoizing it on first use.
func (c *spCache) from(v graph.NodeID) (*graph.ShortestPaths, error) {
	return c.fromWith(v, nil)
}

// fromWith is from with an optional caller-owned Dijkstra workspace
// (heap arena) for the miss path. The computed tree itself owns its
// arrays, so cached trees stay immutable and shareable regardless of
// which workspace produced them.
func (c *spCache) fromWith(v graph.NodeID, ws *graph.DijkstraWorkspace) (*graph.ShortestPaths, error) {
	c.mu.Lock()
	if sp, ok := c.byRoot[v]; ok {
		c.mu.Unlock()
		return sp, nil
	}
	if call, ok := c.inflight[v]; ok {
		c.mu.Unlock()
		<-call.done
		return call.sp, call.err
	}
	call := &spCall{done: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = make(map[graph.NodeID]*spCall)
	}
	c.inflight[v] = call
	c.mu.Unlock()

	var sp *graph.ShortestPaths
	var err error
	if ws != nil {
		sp = new(graph.ShortestPaths)
		err = ws.DijkstraInto(c.g, v, sp)
	} else {
		sp, err = graph.Dijkstra(c.g, v)
	}

	c.mu.Lock()
	if err == nil {
		c.byRoot[v] = sp
		c.builds++
	}
	delete(c.inflight, v)
	c.mu.Unlock()
	call.sp, call.err = sp, err
	close(call.done)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// buildCount reports how many cold Dijkstra builds the cache has run —
// test instrumentation for the single-flight guarantee.
func (c *spCache) buildCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

// repairedClone derives a new cache over newG — the same graph
// structure with new weights on exactly the changed local edges — by
// dynamically repairing every tree cached here instead of recomputing
// it from scratch (see graph.RepairInto; repairs whose damage region
// exceeds maxDamage nodes fall back to a full Dijkstra internally).
// The receiver is left untouched and stays valid for its own graph.
func (c *spCache) repairedClone(
	newG *graph.Graph, changed []graph.EdgeID, maxDamage int,
	ws *graph.DijkstraWorkspace, scratch *spRootScratch,
) (*spCache, error) {
	c.mu.Lock()
	scratch.roots = scratch.roots[:0]
	scratch.sps = scratch.sps[:0]
	for root, sp := range c.byRoot {
		scratch.roots = append(scratch.roots, root)
		scratch.sps = append(scratch.sps, sp)
	}
	c.mu.Unlock()

	nc := newSPCache(newG)
	for i, root := range scratch.roots {
		sp := new(graph.ShortestPaths)
		if _, err := ws.RepairInto(newG, scratch.sps[i], changed, maxDamage, sp); err != nil {
			return nil, err
		}
		nc.byRoot[root] = sp
	}
	return nc, nil
}

// spRootScratch carries repairedClone's root snapshot between pooled
// uses so the patch path does not allocate it per call.
type spRootScratch struct {
	roots []graph.NodeID
	sps   []*graph.ShortestPaths
}

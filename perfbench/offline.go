package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// The offline-appro-waxman150 workload: core.ApproMulti with K = 3 on a
// static Waxman n=150 substrate (the Fig. 5 midpoint). --seed draws one
// batch of requests from the paper's default generator (destination
// ratio uniform in [0.05, 0.2]); clients solver goroutines work through
// it closed-loop, pass after pass, until the time is up. No engine,
// residual mutation, WAL or HTTP is involved.
const (
	offlineNodes         = 150
	offlineSubstrateSeed = 42
	offlineBatch         = 400
	offlineK             = 3
	offlineHeapOps       = 2 * offlineBatch // solves over which heap_peak_mb is taken
)

func offlineSetup(seed int64) (*sdn.Network, []*multicast.Request, error) {
	topo, err := topology.WaxmanDegree(offlineNodes, topology.DefaultAvgDegree, 0.14, offlineSubstrateSeed)
	if err != nil {
		return nil, nil, err
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(offlineSubstrateSeed+1)))
	if err != nil {
		return nil, nil, err
	}
	reqs, err := stratifiedBatch(nw.NumNodes(), seed)
	return nw, reqs, err
}

// stratum is the part of a request that sets most of its cost and
// solve time: destination count (in threes), chain length and
// bandwidth quartile.
type stratum struct{ dests, chain, bw int }

func stratumOf(r *multicast.Request) stratum {
	return stratum{(len(r.Destinations) - 1) / 3, r.Chain.Len(), int((r.BandwidthMbps - 50) / 37.5)}
}

// stratifiedBatch draws offlineBatch requests from the paper's default
// generator under seed, taking them in generator order but only as many
// per stratum as a fixed reference batch (seed 0) holds. Every seed's
// batch thus has the same mix of request sizes and differs in sources,
// destinations, bandwidths and chains, so batch-to-batch variation in
// cost and solve time comes from the algorithm's inputs, not from how
// many large requests one seed happened to draw.
func stratifiedBatch(nodes int, seed int64) ([]*multicast.Request, error) {
	ref, err := multicast.NewGenerator(nodes, multicast.OnlineGeneratorConfig(), 0)
	if err != nil {
		return nil, err
	}
	quota := make(map[stratum]int)
	refBatch, err := ref.Batch(offlineBatch)
	if err != nil {
		return nil, err
	}
	for _, r := range refBatch {
		quota[stratumOf(r)]++
	}
	gen, err := multicast.NewGenerator(nodes, multicast.OnlineGeneratorConfig(), seed)
	if err != nil {
		return nil, err
	}
	out := make([]*multicast.Request, 0, offlineBatch)
	for draws := 0; len(out) < offlineBatch; draws++ {
		if draws > 1000*offlineBatch {
			return nil, fmt.Errorf("seed %d: strata not filled after %d draws", seed, draws)
		}
		r, err := gen.Next()
		if err != nil {
			return nil, err
		}
		if k := stratumOf(r); quota[k] > 0 {
			quota[k]--
			r.ID = len(out) + 1
			out = append(out, r)
		}
	}
	return out, nil
}

func runOffline(cfg config) (*outcome, error) {
	o := newOutcome()
	var (
		nw     *sdn.Network
		reqs   []*multicast.Request
		setups []float64
	)
	cpuSetup := readCPU()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		n, r, err := offlineSetup(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		nw, reqs = n, r
	}
	o.setSetup(setups, cpuSetup)

	// Every request is solved at least once; the first solution of each
	// is kept for the cost metrics and later passes must reproduce it.
	first := make([]*core.Solution, len(reqs))
	times := make([]dist, len(reqs)) // every solve time of each request
	var (
		next     atomic.Int64
		mu       sync.Mutex
		solves   series
		mismatch error
		failed   int
	)
	runtime.GC() // time the phase from the live heap, not set-up garbage
	rt0 := readRuntime()
	ph := startPhase()
	start := ph.start
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	_ = concurrently(clients, func(int) error {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) && time.Now().After(deadline) {
				return nil
			}
			k := i % len(reqs)
			t0 := time.Now()
			sol, err := core.ApproMulti(nw, reqs[k], core.Options{K: offlineK})
			done := time.Now()
			mu.Lock()
			solves.add(done.Sub(start), ms(done.Sub(t0)))
			if err != nil {
				failed++
			} else {
				times[k] = append(times[k], ms(done.Sub(t0)))
				if i < len(reqs) {
					first[k] = sol
				} else if mismatch == nil && (first[k] == nil || solutionKey(first[k]) != solutionKey(sol)) {
					mismatch = fmt.Errorf("request %d: repeat solve differs from the first", reqs[k].ID)
				}
			}
			mu.Unlock()
		}
	})
	ph.end()
	rt1 := readRuntime()

	solved, cost := 0, 0.0
	digest := sha256.New()
	for k, sol := range first {
		if sol == nil {
			fmt.Fprintf(digest, "%d none\n", reqs[k].ID)
			continue
		}
		solved++
		cost += sol.OperationalCost
		fmt.Fprintln(digest, solutionKey(sol))
	}
	// A request's solve time is the median of its repeated solves, so a
	// burst of outside interference during one pass does not move the
	// percentiles over requests.
	var perReq dist
	for _, t := range times {
		if len(t) > 0 {
			perReq = append(perReq, t.quantile(0.5))
		}
	}
	o.attempted = len(solves.v)
	o.failed = failed
	o.steal = ph.stolenAll()
	ph.setRate(o, "throughput_ops_s", &solves)
	ph.setScaled(o, "latency_p50_ms", perReq.quantile(0.5), len(perReq))
	ph.setScaled(o, "latency_p99_ms", perReq.quantile(0.99), len(perReq))
	o.set("accept_ratio", float64(solved)/float64(len(reqs)), len(reqs))
	if solved > 0 {
		o.set("mean_tree_cost", cost/float64(solved), solved)
	}
	ph.setHeapPeak(o, &solves, offlineHeapOps)
	for k, v := range runtimeDelta(rt0, rt1, len(solves.v)) {
		o.set(k, v, len(solves.v))
	}
	if cfg.trace {
		o.set("core.solve_ms_p50", solves.v.quantile(0.5), len(solves.v))
	}
	fmt.Printf("# offline cost digest (seed %d): %x\n", cfg.seed, digest.Sum(nil))

	o.check("offline: repeat solves reproduce the first solution", mismatch)
	o.check("offline: every solution passes packet replay", verifySolutions(nw, first))
	o.check("offline: a fresh set-up with the same seed solves alike", resolveFresh(cfg.seed, first))
	return o, nil
}

// offlineRecheck is how many requests resolveFresh solves again.
const offlineRecheck = 40

// resolveFresh rebuilds the substrate and the seed's batch from
// scratch and solves its first requests sequentially: each solution
// must equal the one the timed phase found, so two runs with one seed
// print the same cost digest.
func resolveFresh(seed int64, first []*core.Solution) error {
	nw, reqs, err := offlineSetup(seed)
	if err != nil {
		return err
	}
	for k, r := range reqs[:offlineRecheck] {
		sol, err := core.ApproMulti(nw, r, core.Options{K: offlineK})
		want := first[k]
		switch {
		case err != nil && want == nil:
		case err != nil || want == nil:
			return fmt.Errorf("request %d: solved in one run only (%v)", r.ID, err)
		case solutionKey(sol) != solutionKey(want):
			return fmt.Errorf("request %d: %s, first run %s", r.ID, solutionKey(sol), solutionKey(want))
		}
	}
	return nil
}

// solutionKey renders a solution's request, exact cost and servers.
func solutionKey(sol *core.Solution) string {
	b := []byte(strconv.Itoa(sol.Request.ID) + " " + strconv.FormatFloat(sol.OperationalCost, 'g', -1, 64))
	for _, v := range sol.Servers {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// verifySolutions installs every solution's flow rules on an SDN
// controller and replays a packet: each destination must receive
// traffic that traversed the service chain, and the tree must deliver
// processed traffic by its own check.
func verifySolutions(nw *sdn.Network, sols []*core.Solution) error {
	ctrl := sdn.NewController(nw)
	for _, sol := range sols {
		if sol == nil {
			continue
		}
		id := sol.Request.ID
		if err := sol.Tree.CheckDelivery(nw.Graph()); err != nil {
			return fmt.Errorf("request %d: %w", id, err)
		}
		if err := ctrl.Install(sol.Request, sol.Tree); err != nil {
			return fmt.Errorf("request %d: install: %w", id, err)
		}
		if err := ctrl.VerifyDelivery(id); err != nil {
			return fmt.Errorf("request %d: %w", id, err)
		}
		if err := ctrl.Uninstall(id); err != nil {
			return fmt.Errorf("request %d: uninstall: %w", id, err)
		}
	}
	return nil
}

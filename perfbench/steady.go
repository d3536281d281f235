package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/topology"
)

// The steady-waxman100 workload: Online_CP through an in-process
// shard router (one shard, engine Workers = clients) on the Fig. 8
// substrate. Each client replays its own seeded Poisson timeline of
// arrivals and departures closed-loop; together they offer
// steadyErlangs with a mean holding time of one virtual hour. The
// substrate is fixed; --seed drives the request streams.
const (
	clients             = 2 // submitters, connections and engine workers
	setupReps           = 3 // set-ups per pass; setup_s is their median
	steadyNodes         = 100
	steadySubstrateSeed = 42
	steadyErlangs       = 320.0
	steadyWarmHours     = 3.0   // virtual hours replayed before timing
	steadyHeapOps       = 12000 // decisions over which heap_peak_mb is taken
	steadyShard         = "s0"
	policy              = "Online_CP"
)

func steadyNetwork() (*sdn.Network, error) {
	topo, err := topology.WaxmanDegree(steadyNodes, topology.DefaultAvgDegree, 0.14, steadySubstrateSeed)
	if err != nil {
		return nil, err
	}
	return sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(steadySubstrateSeed)))
}

// steadySystem is one booted and warmed router with its clients'
// timelines.
type steadySystem struct {
	router *shard.Router
	reg    *obs.Registry
	lines  []*timeline
}

func bootSteady(cfg config, plans *planStats) (*steadySystem, error) {
	reg := obs.NewRegistry()
	router, err := shard.New(shard.Options{
		Shards: []string{steadyShard},
		Build: func(string) (*sdn.Network, core.Planner, error) {
			nw, err := steadyNetwork()
			if err != nil {
				return nil, nil, err
			}
			p, err := core.NewPlanner(policy, core.PlannerOptions{Nodes: nw.NumNodes()})
			if err != nil {
				return nil, nil, err
			}
			if plans != nil {
				p = wrapPlanner(p, "timed-"+policy, plans)
			}
			return nw, p, nil
		},
		Workers:       clients,
		Registry:      reg,
		SampleLatency: cfg.trace,
	})
	if err != nil {
		return nil, err
	}
	s := &steadySystem{router: router, reg: reg}
	for i := 0; i < clients; i++ {
		t, err := newTimeline(steadyNodes, steadyErlangs/clients, 1, cfg.seed*1000+int64(i), i+1, clients)
		if err != nil {
			router.Close()
			return nil, err
		}
		s.lines = append(s.lines, t)
	}
	// Warm up to steady occupancy: every client replays its timeline
	// up to steadyWarmHours of virtual time.
	err = s.parallel(func(_ int, t *timeline) error {
		for t.now() < steadyWarmHours {
			if err := t.advance(s.plainOps()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		router.Close()
		return nil, err
	}
	return s, nil
}

func (s *steadySystem) plainOps() ops {
	return ops{
		admit: func(r *multicast.Request) (*core.Solution, error) {
			return s.router.AdmitContext(context.Background(), "t", r)
		},
		depart: func(id int) error { _, err := s.router.Release(id); return err },
	}
}

// parallel runs f once per client timeline, concurrently.
func (s *steadySystem) parallel(f func(i int, t *timeline) error) error {
	return concurrently(len(s.lines), func(i int) error { return f(i, s.lines[i]) })
}

// clientStats is what one client saw in the timed phase.
type clientStats struct {
	admits, departs              series
	admitted, rejected, departed int
	failed                       int
	cost                         float64
}

func runSteady(cfg config) (*outcome, error) {
	o := newOutcome()
	var plans *planStats
	if cfg.trace {
		plans = &planStats{}
	}
	var setups []float64
	var sys *steadySystem
	cpuSetup := readCPU()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := bootSteady(cfg, plans)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			s.router.Close()
		} else {
			sys = s
		}
	}
	defer sys.router.Close()
	o.setSetup(setups, cpuSetup)
	eng := sys.router.Engine(steadyShard)

	// Timed phase.
	runtime.GC() // time the phase from the live heap, not set-up garbage
	if plans != nil {
		plans.enabled.Store(true)
	}
	var util utilAcc
	stopUtil := sampleUtil(cfg.trace, eng, &util)
	reg0 := snapRegistry(sys.reg)
	rt0 := readRuntime()
	stats := make([]*clientStats, clients)
	ph := startPhase()
	start := ph.start
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	err := sys.parallel(func(i int, t *timeline) error {
		cs := &clientStats{}
		stats[i] = cs
		op := ops{
			admit: func(r *multicast.Request) (*core.Solution, error) {
				t0 := time.Now()
				sol, err := sys.router.AdmitContext(context.Background(), "t", r)
				done := time.Now()
				cs.admits.add(done.Sub(start), ms(done.Sub(t0)))
				switch {
				case err == nil:
					cs.admitted++
					cs.cost += sol.OperationalCost
				case core.IsRejection(err):
					cs.rejected++
				default:
					cs.failed++
				}
				return sol, err
			},
			depart: func(id int) error {
				t0 := time.Now()
				_, err := sys.router.Release(id)
				done := time.Now()
				cs.departs.add(done.Sub(start), ms(done.Sub(t0)))
				if err != nil {
					cs.failed++
				} else {
					cs.departed++
				}
				return nil
			},
		}
		for time.Now().Before(deadline) {
			_ = t.advance(op) // the ops count every failure
		}
		return nil
	})
	ph.end()
	rt1 := readRuntime()
	reg1 := snapRegistry(sys.reg)
	stopUtil()
	if plans != nil {
		plans.enabled.Store(false)
	}
	if err != nil {
		return nil, err
	}

	var all clientStats
	for _, cs := range stats {
		all.admits.merge(&cs.admits)
		all.departs.merge(&cs.departs)
		all.admitted += cs.admitted
		all.rejected += cs.rejected
		all.departed += cs.departed
		all.failed += cs.failed
		all.cost += cs.cost
	}
	decisions := all.admitted + all.rejected
	admitLat, departLat := all.admits.v, all.departs.v
	o.attempted = len(admitLat) + len(departLat)
	o.failed = all.failed
	o.steal = ph.stolenAll()
	ph.setRate(o, "throughput_ops_s", &all.admits)
	ph.setLatency(o, "latency_p50_ms", &all.admits, p50)
	ph.setLatency(o, "latency_p99_ms", &all.admits, p99)
	ph.setLatency(o, "release_latency_p99_ms", &all.departs, p99)
	if decisions > 0 {
		o.set("accept_ratio", float64(all.admitted)/float64(decisions), decisions)
	}
	if all.admitted > 0 {
		o.set("mean_tree_cost", all.cost/float64(all.admitted), all.admitted)
	}
	ph.setHeapPeak(o, &all.admits, steadyHeapOps)
	for k, v := range runtimeDelta(rt0, rt1, o.attempted) {
		o.set(k, v, o.attempted)
	}

	if cfg.trace {
		o.set("shard.admit_ms_p50", admitLat.quantile(0.5), len(admitLat))
		o.set("shard.admit_ms_p99", admitLat.quantile(0.99), len(admitLat))
		o.set("shard.release_ms_p50", departLat.quantile(0.5), len(departLat))
		engineLayers(o, reg1.since(reg0), decisions, admitLat.mean(), plans.lat.take())
		util.report(o)
		o.check("trace wrapper leaves decisions unchanged", checkParity(steadyNetwork, steadyErlangs, cfg.seed))
	}

	o.check("steady: occupancy regime (some requests rejected)", func() error {
		if all.rejected == 0 {
			return fmt.Errorf("no rejections in %d decisions: the substrate never filled", decisions)
		}
		return nil
	}())
	o.check("steady: residuals restored after departing every session", checkDrained(sys))
	return o, nil
}

// checkDrained departs every live session and requires every link and
// server residual back at its capacity and no session left live.
func checkDrained(sys *steadySystem) error {
	for _, t := range sys.lines {
		if err := t.drain(func(id int) error { _, err := sys.router.Release(id); return err }); err != nil {
			return fmt.Errorf("release: %w", err)
		}
	}
	eng := sys.router.Engine(steadyShard)
	if n := eng.LiveCount(); n != 0 {
		return fmt.Errorf("LiveCount = %d after departing every session", n)
	}
	var bad error
	err := eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) {
		bad = residualsAtCapacity(nw)
	})
	if err != nil {
		return err
	}
	return bad
}

// residualsAtCapacity compares every residual with its capacity, to
// floating-point accumulation error.
func residualsAtCapacity(nw *sdn.Network) error {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for e := 0; e < nw.NumEdges(); e++ {
		if !near(nw.ResidualBandwidth(e), nw.BandwidthCap(e)) {
			return fmt.Errorf("link %d residual %v, capacity %v", e, nw.ResidualBandwidth(e), nw.BandwidthCap(e))
		}
	}
	for _, v := range nw.Servers() {
		if !near(nw.ResidualCompute(v), nw.ComputeCap(v)) {
			return fmt.Errorf("server %d residual %v, capacity %v", v, nw.ResidualCompute(v), nw.ComputeCap(v))
		}
	}
	return nil
}

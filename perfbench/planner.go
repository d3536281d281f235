package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// timedPlanner wraps a core.Planner and times every plan call from
// outside. It dispatches exactly as core.Admitter does for the wrapped
// planner (PlanContext, else PlanWith with an arena, else Plan), and
// FastReject answers nil when the wrapped planner has no fast path, so
// decisions are the wrapped planner's own. Reconfigurer is forwarded
// by timedReconfPlanner only, because the engine enables migration
// passes whenever its planner implements it.
type timedPlanner struct {
	inner core.Planner
	name  string
	stats *planStats
}

// planStats is shared by every planner instance built for one run
// (the daemon builds one per shard).
type planStats struct {
	lat     recorder // one sample per plan call
	enabled atomic.Bool
}

func (p *timedPlanner) Name() string { return p.name }

func (p *timedPlanner) timed(f func() (*core.Solution, error)) (*core.Solution, error) {
	if !p.stats.enabled.Load() {
		return f()
	}
	start := time.Now()
	sol, err := f()
	p.stats.lat.add(ms(time.Since(start)))
	return sol, err
}

func (p *timedPlanner) Plan(nw *sdn.Network, req *multicast.Request) (*core.Solution, error) {
	return p.timed(func() (*core.Solution, error) { return p.inner.Plan(nw, req) })
}

func (p *timedPlanner) PlanWith(nw *sdn.Network, req *multicast.Request, arena *core.PlanArena) (*core.Solution, error) {
	return p.timed(func() (*core.Solution, error) { return p.planWith(nw, req, arena) })
}

func (p *timedPlanner) planWith(nw *sdn.Network, req *multicast.Request, arena *core.PlanArena) (*core.Solution, error) {
	if ap, ok := p.inner.(core.ArenaPlanner); ok && arena != nil {
		return ap.PlanWith(nw, req, arena)
	}
	return p.inner.Plan(nw, req)
}

func (p *timedPlanner) PlanContext(ctx context.Context, nw *sdn.Network, req *multicast.Request, arena *core.PlanArena) (*core.Solution, error) {
	return p.timed(func() (*core.Solution, error) {
		if cp, ok := p.inner.(core.ContextPlanner); ok {
			return cp.PlanContext(ctx, nw, req, arena)
		}
		return p.planWith(nw, req, arena)
	})
}

func (p *timedPlanner) FastReject(view *sdn.Network, req *multicast.Request) error {
	fr, ok := p.inner.(core.FastRejecter)
	if !ok {
		return nil
	}
	return fr.FastReject(view, req)
}

type timedReconfPlanner struct {
	*timedPlanner
	reconf core.Reconfigurer
}

func (p *timedReconfPlanner) Reconfigure(a *core.Admitter, arena *core.PlanArena) []core.ReconfOutcome {
	return p.reconf.Reconfigure(a, arena)
}

// wrapPlanner returns inner behind the timing wrapper.
func wrapPlanner(inner core.Planner, name string, stats *planStats) core.Planner {
	tp := &timedPlanner{inner: inner, name: name, stats: stats}
	if r, ok := inner.(core.Reconfigurer); ok {
		return &timedReconfPlanner{timedPlanner: tp, reconf: r}
	}
	return tp
}

// timedPolicy registers, once per process, a benchmark-only policy
// name that builds the named policy behind the timing wrapper, so the
// daemon resolves it through the planner registry like any other.
// Every instance records into the returned stats.
var (
	timedMu    sync.Mutex
	timedStats = map[string]*planStats{}
)

func timedPolicy(policy string) (string, *planStats) {
	name := "perfbench-timed-" + policy
	timedMu.Lock()
	defer timedMu.Unlock()
	if s, ok := timedStats[policy]; ok {
		return name, s
	}
	stats := &planStats{}
	spec, _ := core.LookupPlanner(policy)
	core.RegisterPlanner(core.PlannerSpec{
		Name:        name,
		Description: spec.Description + " (timed by perfbench)",
		New: func(o core.PlannerOptions) (core.Planner, error) {
			inner, err := core.NewPlanner(policy, o)
			if err != nil {
				return nil, err
			}
			return wrapPlanner(inner, name, stats), nil
		},
	})
	timedStats[policy] = stats
	return name, stats
}

// parityEvents is the length of the replay checkParity compares.
const parityEvents = 600

// checkParity replays one fixed arrival and departure sequence, one
// request at a time, through an engine planning with the bare policy
// and through one planning with the timing wrapper, and requires
// byte-identical decision transcripts.
func checkParity(substrate func() (*sdn.Network, error), erlangs float64, seed int64) error {
	transcript := func(wrap bool) ([32]byte, error) {
		nw, err := substrate()
		if err != nil {
			return [32]byte{}, err
		}
		p, err := core.NewPlanner(policy, core.PlannerOptions{Nodes: nw.NumNodes()})
		if err != nil {
			return [32]byte{}, err
		}
		if wrap {
			stats := &planStats{}
			stats.enabled.Store(true)
			p = wrapPlanner(p, "parity-"+policy, stats)
		}
		eng := engine.New(nw, p, engine.Options{Workers: clients})
		defer eng.Close()
		t, err := newTimeline(nw.NumNodes(), erlangs, 1, seed, 1, 1)
		if err != nil {
			return [32]byte{}, err
		}
		h := sha256.New()
		o := ops{
			admit: func(r *multicast.Request) (*core.Solution, error) {
				sol, err := eng.Admit(r)
				fmt.Fprintln(h, decisionLine(r, sol, err))
				return sol, err
			},
			depart: func(id int) error {
				_, err := eng.Depart(id)
				fmt.Fprintf(h, "depart %d %v\n", id, err)
				return err
			},
		}
		for i := 0; i < parityEvents; i++ {
			if err := t.advance(o); err != nil {
				return [32]byte{}, err
			}
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return sum, nil
	}
	bare, err := transcript(false)
	if err != nil {
		return err
	}
	timed, err := transcript(true)
	if err != nil {
		return err
	}
	if bare != timed {
		return fmt.Errorf("decision transcripts differ over %d events (bare %x, timed %x)", parityEvents, bare[:8], timed[:8])
	}
	return nil
}

// decisionLine renders one admission decision exactly: costs in
// shortest round-trip form, the servers, and every hop of the tree.
func decisionLine(r *multicast.Request, sol *core.Solution, err error) string {
	if err != nil {
		return fmt.Sprintf("reject %d %s %v", r.ID, core.RejectReason(err), err)
	}
	b := []byte("admit " + strconv.Itoa(r.ID) + " " +
		strconv.FormatFloat(sol.OperationalCost, 'g', -1, 64) + " " +
		strconv.FormatFloat(sol.SelectionCost, 'g', -1, 64) + " servers")
	for _, v := range sol.Servers {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, " hops"...)
	for _, hop := range sol.Tree.Hops() {
		b = fmt.Appendf(b, " %d:%t", hop.Edge, hop.Processed)
	}
	return string(b)
}

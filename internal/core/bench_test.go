package core

import (
	"context"
	"math/rand"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// BenchmarkCPPlan measures the pure Online_CP planning cost — the
// engine's hot path (results/BENCH_engine.json shows planning dominates
// the writer by >100x) — on the Fig. 8 workload: Waxman n=100, a
// partially loaded network (64 admitted sessions), and a 64-request
// pool cycled without committing, so every iteration is one
// CPPlanner.Plan against fixed residuals. The recorded baseline lives
// in results/BENCH_plan.json; regenerate it with
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkCPPlan -benchtime 2s
func BenchmarkCPPlan(b *testing.B) {
	nw, pool := cpPlanCorpus(b)
	planner, err := NewCPPlanner(DefaultCostModel(nw.NumNodes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, perr := planner.Plan(nw, pool[i%len(pool)]); perr != nil && !IsRejection(perr) {
			b.Fatal(perr)
		}
	}
}

// cpPlanCorpus returns BenchmarkCPPlan's workload: the Fig. 8 network
// with 64 sessions admitted and the 64-request pool planned against it.
func cpPlanCorpus(tb testing.TB) (*sdn.Network, []*multicast.Request) {
	tb.Helper()
	topo, err := topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 55)
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := gen.Batch(64)
	if err != nil {
		tb.Fatal(err)
	}
	adm, err := NewOnlineCP(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range warm {
		if _, aerr := adm.Admit(r); aerr != nil && !IsRejection(aerr) {
			tb.Fatal(aerr)
		}
	}
	pool, err := gen.Batch(64)
	if err != nil {
		tb.Fatal(err)
	}
	return nw, pool
}

// maxCPPlanAllocs bounds the allocations of one warm-arena Online_CP
// plan over the BenchmarkCPPlan corpus. Candidate scoring allocates
// nothing; what remains is the per-candidate Steiner result, the
// incumbents' pseudo trees and the returned Solution: about 111 on
// average when this bound was set.
const maxCPPlanAllocs = 120

// TestCPPlanAllocs pins the allocation count of CPPlanner.PlanContext
// with a warm arena and warm plan caches, so per-candidate garbage
// cannot creep back into the planner unnoticed. Run it under -cpu 1,2.
func TestCPPlanAllocs(t *testing.T) {
	nw, pool := cpPlanCorpus(t)
	planner, err := NewCPPlanner(DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	arena := NewPlanArena()
	planAll := func() {
		for _, req := range pool {
			if _, perr := planner.PlanContext(context.Background(), nw, req, arena); perr != nil && !IsRejection(perr) {
				t.Fatal(perr)
			}
		}
	}
	planAll() // grow the arena and fill the plan caches
	perPlan := testing.AllocsPerRun(5, planAll) / float64(len(pool))
	t.Logf("%.1f allocs per plan", perPlan)
	if perPlan > maxCPPlanAllocs {
		t.Fatalf("warm Online_CP plan allocates %.1f times, want <= %d", perPlan, maxCPPlanAllocs)
	}
}

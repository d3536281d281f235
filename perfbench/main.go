// Command perfbench is nfvmcast's end-to-end benchmark. It runs one
// workload per invocation, checks the program's outputs, and prints
// every metric with its unit and sample count; the last line of
// standard output is a JSON object {correct, attempted, failed,
// metrics}. See README.md for the workloads and what each metric
// measures.
//
//	go run . --workload steady-waxman100 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond what the program ships with. With --trace 1
// the workload runs twice, untraced and then traced, and the metrics
// are the per-layer ones plus the tracing overhead (the difference in
// end-to-end numbers between the two passes).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload
// reports every one of them (see README.md for the per-workload
// meaning).
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"accept_ratio", "ratio"},
	{"mean_tree_cost", "cost"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run. A layer that is not on
// a workload's path reports 0 there.
var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"release_latency_p99_ms", "ms"},
	{"max_rate_at_slo", "1/s"},
	{"open_loop.latency_p50_ms", "ms"},
	{"open_loop.latency_p99_ms", "ms"},
	{"trace.overhead_latency_p50_pct", "%"},
	{"trace.overhead_throughput_pct", "%"},
	{"daemon.submit_handler_ms_p50", "ms"},
	{"daemon.submit_handler_ms_p99", "ms"},
	{"daemon.release_handler_ms_p50", "ms"},
	{"daemon.transport_ms_p50", "ms"},
	{"loadgen.lag_ms_p99", "ms"},
	{"wal.fsyncs_per_ack", "count"},
	{"wal.bytes_per_ack", "B"},
	{"wal.snapshots", "count"},
	{"wal.recover_s", "s"},
	{"shard.admit_ms_p50", "ms"},
	{"shard.admit_ms_p99", "ms"},
	{"shard.release_ms_p50", "ms"},
	{"engine.clone_ms_mean", "ms"},
	{"engine.commit_ms_mean", "ms"},
	{"engine.commit_batch_size_mean", "count"},
	{"engine.wait_ms_mean", "ms"},
	{"engine.conflicts_per_decision", "ratio"},
	{"engine.replans_per_decision", "ratio"},
	{"core.plan_ms_p50", "ms"},
	{"core.plan_ms_p99", "ms"},
	{"core.plans_per_decision", "ratio"},
	{"core.reject_share.threshold", "ratio"},
	{"core.reject_share.bandwidth", "ratio"},
	{"core.reject_share.compute", "ratio"},
	{"core.reject_share.unreachable", "ratio"},
	{"core.reject_share.commit_conflict", "ratio"},
	{"core.solve_ms_p50", "ms"},
	{"sdn.link_util_mean", "ratio"},
	{"sdn.server_util_mean", "ratio"},
	{"sdn.live_sessions", "count"},
	{"go_runtime.alloc_bytes_per_op", "B"},
	{"go_runtime.mallocs_per_op", "count"},
	{"go_runtime.gc_cpu_fraction", "ratio"},
}

// config is one pass of a workload.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	probe   bool   // also probe the capacity ladder (max_rate_at_slo)
	work    string // scratch directory inside the checkout
}

// value is one measured metric; n is its sample count where it is a
// statistic over samples (0 otherwise).
type value struct {
	v float64
	n int
}

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	metrics   map[string]value
	checks    []check
	attempted int
	failed    int
	steal     float64 // share of runnable CPU time stolen in the timed phase
}

type check struct {
	name string
	err  error
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]value)} }

func (o *outcome) set(name string, v float64, n int) { o.metrics[name] = value{v, n} }

func (o *outcome) check(name string, err error) { o.checks = append(o.checks, check{name, err}) }

// setSetup records the median of the set-up times taken since c, on
// the steal-free clock (see stealFree).
func (o *outcome) setSetup(setups []float64, c cpuTimes) {
	s := stolenBetween(c, readCPU())
	fmt.Printf("# wall clock %-24s %.6g (hypervisor stole %.1f%% of runnable CPU)\n", "setup_s", median(setups), 100*s)
	o.set("setup_s", median(setups)*(1-s), len(setups))
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

type workload struct {
	why string
	run func(config) (*outcome, error)
}

var workloads = map[string]workload{
	"steady-waxman100": {
		"Online_CP in-process at 320 Erlangs on Waxman n=100: overlapping sessions, repaired plan caches, writer contention",
		runSteady,
	},
	"daemon-geant-durable": {
		"nfvmcastd over loopback HTTP with an fsync'd WAL on GEANT, open-loop Poisson submits and releases",
		runDaemon,
	},
	"offline-appro-waxman150": {
		"Appro_Multi K=3 on a static Waxman n=150: subset search, Dijkstra and KMB only",
		runOffline,
	},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	work := flag.String("work", ".bench_build", "scratch directory for logs")
	flag.Parse()
	if err := run(*name, config{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, cfg config) error {
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	env := environment(name, cfg)
	fmt.Printf("# workload %s: %s\n", name, w.why)

	base := cfg
	base.trace = false
	base.probe = cfg.trace
	plain, err := w.run(base)
	if err != nil {
		return err
	}
	env["cpu_steal_share"] = plain.steal
	printPass("untraced", plain, endToEnd)
	res := plain
	defs := endToEnd
	if cfg.trace {
		traced, err := w.run(cfg)
		if err != nil {
			return err
		}
		printPass("traced", traced, endToEnd)
		res = mergeTraced(plain, traced)
		defs = perLayer
		printPass("per-layer", res, perLayer)
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]map[string]any)}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not report %s", name, d.name)
		}
		out.Metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// untracedLayers are the per-layer metrics taken from the untraced
// pass: end-to-end views that tracing would distort, the open-loop
// probe (run in that pass only), and the Go runtime counters, which
// should not include the tracer's own allocations.
var untracedLayers = []string{
	"latency_p99_ms", "release_latency_p99_ms", "max_rate_at_slo",
	"open_loop.latency_p50_ms", "open_loop.latency_p99_ms", "loadgen.lag_ms_p99",
	"go_runtime.alloc_bytes_per_op", "go_runtime.mallocs_per_op", "go_runtime.gc_cpu_fraction",
}

// mergeTraced builds the traced run's report: the per-layer metrics of
// the traced pass, untracedLayers from the untraced pass, and the
// tracing overhead between the two passes. Layers absent from the
// workload's path report 0.
func mergeTraced(plain, traced *outcome) *outcome {
	res := newOutcome()
	for _, d := range perLayer {
		if v, ok := traced.metrics[d.name]; ok {
			res.metrics[d.name] = v
		}
	}
	for _, n := range untracedLayers {
		if v, ok := plain.metrics[n]; ok {
			res.metrics[n] = v
		}
	}
	// Both overheads are positive when tracing slows the workload.
	loss := func(name string, sign float64) float64 {
		p, t := plain.metrics[name].v, traced.metrics[name].v
		if p == 0 {
			return 0
		}
		return sign * 100 * (t - p) / p
	}
	res.set("trace.overhead_latency_p50_pct", loss("latency_p50_ms", 1), 0)
	res.set("trace.overhead_throughput_pct", loss("throughput_ops_s", -1), 0)
	res.checks = append(append(res.checks, plain.checks...), traced.checks...)
	res.attempted = plain.attempted + traced.attempted
	res.failed = plain.failed + traced.failed
	return res
}

func printPass(label string, o *outcome, defs []metricDef) {
	fmt.Printf("# %s pass: attempted=%d failed=%d\n", label, o.attempted, o.failed)
	for _, c := range o.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Printf("check %-40s %s\n", c.name, status)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		switch {
		case !ok:
			fmt.Printf("metric %-36s n/a (layer not on this path)\n", d.name)
		case v.n > 0:
			fmt.Printf("metric %-36s %.6g %s (n=%d)\n", d.name, v.v, d.unit, v.n)
		default:
			fmt.Printf("metric %-36s %.6g %s\n", d.name, v.v, d.unit)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"nfvmcast/internal/core"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
)

// regSnap is a reading of an obs registry: counters and histogram
// (sum, count) pairs keyed by "name{labels}".
type regSnap struct {
	counters map[string]float64
	hists    map[string][2]float64
}

func snapRegistry(r *obs.Registry) regSnap {
	s := regSnap{counters: make(map[string]float64), hists: make(map[string][2]float64)}
	for k, v := range r.CounterValues() {
		s.counters[k] = float64(v)
	}
	for k, h := range r.Histograms() {
		s.hists[k] = [2]float64{h.Sum, float64(h.Count)}
	}
	return s
}

// fetchRegistry reads a registry over HTTP from its /metrics.json.
func fetchRegistry(client *http.Client, url string) (regSnap, error) {
	var doc struct {
		Counters []struct {
			Name, Labels string
			Value        uint64
		}
		Histograms []struct {
			Name, Labels string
			Sum          float64
			Count        uint64
		}
	}
	resp, err := client.Get(url + "/metrics.json")
	if err != nil {
		return regSnap{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return regSnap{}, fmt.Errorf("GET /metrics.json: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return regSnap{}, fmt.Errorf("decode /metrics.json: %w", err)
	}
	s := regSnap{counters: make(map[string]float64), hists: make(map[string][2]float64)}
	for _, c := range doc.Counters {
		s.counters[c.Name+c.Labels] = float64(c.Value)
	}
	for _, h := range doc.Histograms {
		s.hists[h.Name+h.Labels] = [2]float64{h.Sum, float64(h.Count)}
	}
	return s, nil
}

// since returns s minus an earlier reading.
func (s regSnap) since(before regSnap) regSnap {
	d := regSnap{counters: make(map[string]float64), hists: make(map[string][2]float64)}
	for k, v := range s.counters {
		d.counters[k] = v - before.counters[k]
	}
	for k, v := range s.hists {
		b := before.hists[k]
		d.hists[k] = [2]float64{v[0] - b[0], v[1] - b[1]}
	}
	return d
}

// matches reports whether key names a series of family carrying every
// label in labels (each written as `k="v"`).
func matches(key, family string, labels []string) bool {
	if key != family && !strings.HasPrefix(key, family+"{") {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(key, l) {
			return false
		}
	}
	return true
}

// counter sums the family's series carrying the given labels.
func (s regSnap) counter(family string, labels ...string) float64 {
	t := 0.0
	for k, v := range s.counters {
		if matches(k, family, labels) {
			t += v
		}
	}
	return t
}

// hist sums the family's histogram series: total and count.
func (s regSnap) hist(family string) (sum, count float64) {
	for k, v := range s.hists {
		if matches(k, family, nil) {
			sum += v[0]
			count += v[1]
		}
	}
	return sum, count
}

// engineLayers sets the engine and core per-layer metrics of one timed
// phase: d is the registry delta over it, decisions the admissions
// decided, admitMean the mean admission latency seen by the caller
// (ms), and plans what the timing planner recorded.
func engineLayers(o *outcome, d regSnap, decisions int, admitMean float64, plans dist) {
	if decisions == 0 {
		return
	}
	coreLayers(o, d, decisions, plans)
	per := func(v float64) float64 { return v / float64(decisions) }
	cloneSum, clones := d.hist("nfv_snapshot_clone_seconds")
	commitSum, commits := d.hist("nfv_commit_seconds")
	mean := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return 1000 * sum / n
	}
	o.set("engine.clone_ms_mean", mean(cloneSum, clones), int(clones))
	o.set("engine.commit_ms_mean", mean(commitSum, commits), int(commits))
	// With per-commit epochs (BatchWindow <= 1) the writer never
	// batches, so every commit is an epoch of one.
	batch := 1.0
	if bs, bn := d.hist("nfv_commit_batch_size"); bn > 0 {
		batch = bs / bn
	}
	o.set("engine.commit_batch_size_mean", batch, 0)
	o.set("engine.conflicts_per_decision", per(d.counter("nfv_commit_conflicts_total")), decisions)
	o.set("engine.replans_per_decision", per(d.counter("nfv_replans_total")), decisions)

	planSum := 0.0
	for _, v := range plans {
		planSum += v
	}
	self := admitMean - per(planSum) - per(1000*cloneSum) - per(1000*commitSum)
	o.set("engine.wait_ms_mean", self, decisions)
}

// coreLayers sets the planner metrics and rejection shares.
func coreLayers(o *outcome, d regSnap, decisions int, plans dist) {
	if decisions == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(decisions) }
	o.set("core.plan_ms_p50", plans.quantile(0.5), len(plans))
	o.set("core.plan_ms_p99", plans.quantile(0.99), len(plans))
	o.set("core.plans_per_decision", per(float64(len(plans))), decisions)
	for _, reason := range []string{obs.ReasonThreshold, obs.ReasonBandwidth, obs.ReasonCompute,
		obs.ReasonUnreachable, obs.ReasonCommitConflict} {
		o.set("core.reject_share."+reason,
			per(d.counter("nfv_rejected_total", `reason="`+reason+`"`)), decisions)
	}
}

// utilization samples a network's mean link and server utilisation.
// The caller holds the network still (engine.SnapshotState).
func utilization(nw *sdn.Network, lives []*core.Solution, acc *utilAcc) {
	link := 0.0
	for e := 0; e < nw.NumEdges(); e++ {
		link += nw.LinkUtilization(e)
	}
	srv := 0.0
	for _, v := range nw.Servers() {
		srv += nw.ServerUtilization(v)
	}
	acc.link.add(link / float64(nw.NumEdges()))
	acc.server.add(srv / float64(len(nw.Servers())))
	acc.live.add(float64(len(lives)))
}

type utilAcc struct{ link, server, live recorder }

func (a *utilAcc) report(o *outcome) {
	link, server, live := a.link.take(), a.server.take(), a.live.take()
	o.set("sdn.link_util_mean", link.mean(), len(link))
	o.set("sdn.server_util_mean", server.mean(), len(server))
	o.set("sdn.live_sessions", live.mean(), len(live))
}

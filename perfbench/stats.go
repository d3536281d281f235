package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// dist is a set of samples: milliseconds, unless a caller says otherwise.
type dist []float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 for an empty set). It sorts d in place.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Float64s(d)
	pos := q * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// median of a handful of values (set-up repetitions, windows).
func median(vs []float64) float64 { return append(dist(nil), vs...).quantile(0.5) }

// recorder collects samples from several goroutines.
type recorder struct {
	mu sync.Mutex
	d  dist
}

func (r *recorder) add(v float64) {
	r.mu.Lock()
	r.d = append(r.d, v)
	r.mu.Unlock()
}

func (r *recorder) take() dist {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.d
	r.d = nil
	return out
}

// runtimeCounters is a reading of the Go runtime's cumulative
// allocation and CPU counters.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// runtimeDelta turns two readings into the per-operation go_runtime
// metrics over ops operations.
func runtimeDelta(a, b runtimeCounters, ops int) map[string]float64 {
	out := map[string]float64{
		"go_runtime.alloc_bytes_per_op": 0,
		"go_runtime.mallocs_per_op":     0,
		"go_runtime.gc_cpu_fraction":    0,
	}
	if ops > 0 {
		out["go_runtime.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
		out["go_runtime.mallocs_per_op"] = float64(b.allocObjects-a.allocObjects) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["go_runtime.gc_cpu_fraction"] = (b.gcCPU - a.gcCPU) / cpu
	}
	return out
}

// windows is the number of equal windows a timed phase is cut into
// (see phase.perWindow).
const windows = 10

// series is a set of samples from a timed phase: when each completed,
// as an offset from the phase's start, and its value.
type series struct {
	at []time.Duration
	v  dist
}

func (s *series) add(at time.Duration, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

func (s *series) merge(o *series) {
	s.at = append(s.at, o.at...)
	s.v = append(s.v, o.v...)
}

// split cuts the phase [0, span) into windows and returns the values
// completing in each; late completions count in the last window.
func (s *series) split(span time.Duration) []dist {
	out := make([]dist, windows)
	for i, at := range s.at {
		w := int(int64(at) * windows / int64(span))
		if w >= windows {
			w = windows - 1
		}
		out[w] = append(out[w], s.v[i])
	}
	return out
}

func p50(d dist) float64 { return d.quantile(0.5) }
func p99(d dist) float64 { return d.quantile(0.99) }

// nth returns when the n-th sample (1-based) completed, or ok=false
// when there are fewer.
func (s *series) nth(n int) (time.Duration, bool) {
	if n < 1 || n > len(s.at) {
		return 0, false
	}
	at := append([]time.Duration(nil), s.at...)
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at[n-1], true
}

// phase samples a running timed phase: the live heap every 5 ms, and
// the VM's CPU times every 100 ms so each window's timings can be put
// on the steal-free clock. The live heap is what the last garbage
// collection found reachable; unlike heap in use, it does not depend
// on how much garbage piled up before a collection.
type phase struct {
	start time.Time
	span  time.Duration // set by end
	heap  series        // MB
	cpu   []cpuSample
	stop  chan struct{}
	done  chan struct{}
}

type cpuSample struct {
	at  time.Duration
	cpu cpuTimes
}

const heapSample = "/gc/heap/live:bytes"

func startPhase() *phase {
	p := &phase{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	m := []metrics.Sample{{Name: heapSample}}
	read := func(tick int) {
		at := time.Since(p.start)
		metrics.Read(m)
		p.heap.add(at, float64(m[0].Value.Uint64())/(1<<20))
		if tick%20 == 0 {
			p.cpu = append(p.cpu, cpuSample{at, readCPU()})
		}
	}
	read(0)
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for tick := 1; ; tick++ {
			select {
			case <-p.stop:
				read(0)
				return
			case <-t.C:
				read(tick)
			}
		}
	}()
	return p
}

// end stops sampling; the phase spans from its start to now.
func (p *phase) end() {
	close(p.stop)
	<-p.done
	p.span = time.Since(p.start)
}

// stolen is the share of runnable CPU time the hypervisor stole between
// offsets from and to (at the resolution of the CPU samples).
func (p *phase) stolen(from, to time.Duration) float64 {
	at := func(t time.Duration) cpuTimes {
		c := p.cpu[0].cpu
		for _, s := range p.cpu {
			if s.at <= t {
				c = s.cpu
			}
		}
		return c
	}
	return stolenBetween(at(from), at(to))
}

// perWindow applies f to each window of s together with the share of
// CPU time stolen in that window. It returns the median over the
// cleanest half of the windows, those the hypervisor stole least from:
// steal stalls set a latency tail far beyond their first-order share,
// so windows hit by a burst are left out rather than corrected.
func (p *phase) perWindow(s *series, f func(d dist, stolen float64) float64) float64 {
	type win struct{ v, stolen float64 }
	var ws []win
	for w, d := range s.split(p.span) {
		from := p.span * time.Duration(w) / windows
		to := p.span * time.Duration(w+1) / windows
		if w == windows-1 {
			to = p.span + time.Second // the closing sample
		}
		st := p.stolen(from, to)
		ws = append(ws, win{f(d, st), st})
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].stolen < ws[j].stolen })
	var per []float64
	for _, w := range ws[:windows/2] {
		per = append(per, w.v)
	}
	return median(per)
}

// setRate records the windowed completion rate of s on the steal-free
// clock: each window's count over the CPU time the VM kept.
func (p *phase) setRate(o *outcome, name string, s *series) {
	sec := p.span.Seconds() / windows
	wall := p.perWindow(s, func(d dist, _ float64) float64 { return float64(len(d)) / sec })
	v := p.perWindow(s, func(d dist, st float64) float64 { return float64(len(d)) / (sec * (1 - st)) })
	fmt.Printf("# wall clock %-24s %.6g\n", name, wall)
	o.set(name, v, len(s.v))
}

// setLatency records the windowed statistic f of s on the steal-free
// clock: each window's value scaled by the share of CPU time kept.
func (p *phase) setLatency(o *outcome, name string, s *series, f func(dist) float64) {
	var wall, v float64
	if len(s.v) > 0 {
		wall = p.perWindow(s, func(d dist, _ float64) float64 { return f(d) })
		v = p.perWindow(s, func(d dist, st float64) float64 { return f(d) * (1 - st) })
	}
	fmt.Printf("# wall clock %-24s %.6g\n", name, wall)
	o.set(name, v, len(s.v))
}

// setScaled records a latency taken over the whole phase on the
// steal-free clock: scaled by the share of CPU time the VM kept.
func (p *phase) setScaled(o *outcome, name string, wall float64, n int) {
	fmt.Printf("# wall clock %-24s %.6g\n", name, wall)
	o.set(name, wall*(1-p.stolenAll()), n)
}

// setHeapPeak records the heap's high-water level (MB): the 90th
// percentile of the live-heap samples over the phase's first n
// operations in ops, or over the whole phase when it did fewer. The
// engine keeps every admitted solution, so the live heap of the online
// workloads grows with the work done; a fixed amount of work keeps a
// faster program from reading as a bigger one, and sees about the same
// number of collections (the collector runs per allocated byte). The
// 90th percentile rather than the maximum, because a single collection
// that lands while both clients hold their largest scratch swung the
// maximum by 20-30% between runs.
func (p *phase) setHeapPeak(o *outcome, ops *series, n int) {
	until, ok := ops.nth(n)
	if !ok {
		until = p.span
	}
	var live dist
	for i, at := range p.heap.at {
		if at <= until {
			live = append(live, p.heap.v[i])
		}
	}
	o.set("heap_peak_mb", live.quantile(0.9), len(live))
}

// stolenAll is the steal share over the whole phase.
func (p *phase) stolenAll() float64 { return p.stolen(0, p.span+time.Second) }

package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/daemon"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
	"nfvmcast/internal/wal"
)

// The daemon-geant-durable workload: an in-process nfvmcastd
// (daemon.New with shipped defaults, Online_CP, fsync'd WAL) on GEANT,
// served on a loopback listener over `clients` keep-alive connections.
// The substrate is fixed; --seed drives the requests.
//
// The measured phase is closed-loop: each connection replays its own
// seeded Poisson timeline of submits and releases (together
// daemonErlangs of offered load) and sends its next request when the
// last one is answered. The probe phase of a traced run adds the
// open-loop view: Poisson submits at daemonRate with holding time
// daemonErlangs/daemonRate seconds, releases sent when each holding
// time expires, every request timed from its scheduled send time, and
// a ladder of offered rates for max_rate_at_slo.
const (
	daemonTopology      = "geant"
	daemonSubstrateSeed = 7
	daemonErlangs       = 120.0
	daemonRate          = 100.0 // arrivals/s of the measured phase
	daemonWarmHolds     = 3.0   // holding times replayed before timing
	sloP99Ms            = 50.0  // submit p99 limit of max_rate_at_slo
	lagLimitMs          = 20.0  // generator lateness beyond which a run is flagged
	rungSeconds         = 3.0
	daemonHeapOps       = 8000 // operations over which heap_peak_mb is taken
	daemonShard         = "s0"
	handlerHeader       = "X-Perfbench-Handler-Ns"
)

// ladder is the fixed set of offered arrival rates (1/s) probed, in
// order, for max_rate_at_slo: steps of 1.5x from daemonRate.
var ladder = []float64{100, 150, 225, 340, 500, 750, 1100, 1700}

func daemonNodes() int { return topology.GEANT().NumNodes() }

// daemonSystem is one booted daemon with its listener and client.
type daemonSystem struct {
	srv     *daemon.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	handler *handlerTimes // nil in the untraced pass
	boot    time.Duration // daemon.New alone
}

func bootDaemon(dir, policy string, ht *handlerTimes) (*daemonSystem, error) {
	start := time.Now()
	srv, err := daemon.New(daemon.Config{
		Topology: daemonTopology,
		Seed:     daemonSubstrateSeed,
		Policy:   policy,
		WALDir:   dir,
	})
	if err != nil {
		return nil, err
	}
	boot := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	h := srv.Handler()
	if ht != nil {
		h = ht.wrap(h)
	}
	d := &daemonSystem{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
			Timeout:   30 * time.Second,
		},
		handler: ht,
		boot:    boot,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// shutdown stops the listener, then drains the daemon (final snapshot,
// logs closed).
func (d *daemonSystem) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); derr != nil && err == nil {
		err = derr
	}
	d.client.CloseIdleConnections()
	return err
}

// reply is the client's view of one request.
type reply struct {
	status  int
	sent    time.Time
	done    time.Time
	handler time.Duration // server-side handler time (traced pass only)
	err     error         // transport error, unexpected status, or bad body
}

// post sends one JSON request. A 200 must decode into ok, a 409 must
// be a rejection envelope; anything else is an error.
func (d *daemonSystem) post(path string, body any, ok any) reply {
	buf, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	r := reply{sent: time.Now()}
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if v := resp.Header.Get(handlerHeader); v != "" {
		ns, _ := strconv.ParseInt(v, 10, 64)
		r.handler = time.Duration(ns)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		err = json.NewDecoder(resp.Body).Decode(ok)
	case http.StatusConflict:
		var e daemon.ErrorResponse
		if err = json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Code != daemon.CodeRejected {
			err = fmt.Errorf("409 with code %q", e.Code)
		}
	default:
		msg, _ := io.ReadAll(resp.Body)
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	r.done = time.Now()
	if err != nil {
		r.err = fmt.Errorf("POST %s: %w", path, err)
	}
	return r
}

func (d *daemonSystem) submit(req *multicast.Request) (reply, float64) {
	var out daemon.SubmitResponse
	r := d.post("/v1/submit", daemon.SubmitRequest{Tenant: "t", Request: wal.EncodeRequest(req)}, &out)
	if r.err == nil && r.status == http.StatusOK {
		if out.ID != req.ID || out.Solution == nil {
			r.err = fmt.Errorf("submit %d: answer names request %d", req.ID, out.ID)
		} else {
			return r, out.Solution.OperationalCost
		}
	}
	return r, 0
}

func (d *daemonSystem) release(id int) reply {
	var out daemon.ReleaseResponse
	r := d.post("/v1/release", daemon.ReleaseRequest{ID: id}, &out)
	if r.err == nil && r.status == http.StatusOK && out.ID != id {
		r.err = fmt.Errorf("release %d: answer names request %d", id, out.ID)
	}
	if r.err == nil && r.status != http.StatusOK {
		r.err = fmt.Errorf("release %d: status %d", id, r.status)
	}
	return r
}

func (d *daemonSystem) report() (daemon.ReportResponse, error) {
	var rep daemon.ReportResponse
	resp, err := d.client.Get(d.url + "/v1/report")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("GET /v1/report: %s", resp.Status)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

// handlerTimes is server-side middleware around Handler(): it times
// each submit and release and tells the client the handler time in a
// response header, so the client can split its latency into handler
// and transport.
type handlerTimes struct {
	submit, release recorder
	on              atomic.Bool
}

type stampWriter struct {
	http.ResponseWriter
	start   time.Time
	stamped bool
}

func (w *stampWriter) WriteHeader(code int) {
	if !w.stamped {
		w.stamped = true
		w.Header().Set(handlerHeader, strconv.FormatInt(int64(time.Since(w.start)), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *stampWriter) Write(b []byte) (int, error) {
	if !w.stamped {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rec *recorder
		switch r.URL.Path {
		case "/v1/submit":
			rec = &h.submit
		case "/v1/release":
			rec = &h.release
		default:
			next.ServeHTTP(w, r)
			return
		}
		sw := &stampWriter{ResponseWriter: w, start: time.Now()}
		next.ServeHTTP(sw, r)
		if h.on.Load() {
			rec.add(ms(time.Since(sw.start)))
		}
	})
}

// phaseStats is what the open-loop generator saw in one phase.
type phaseStats struct {
	mu    sync.Mutex
	start time.Time
	tally
	lag                   dist
	dispatched, completed atomic.Int64
}

// wait returns once every request dispatched in the phase has finished.
func (p *phaseStats) wait() {
	for p.completed.Load() < p.dispatched.Load() {
		time.Sleep(time.Millisecond)
	}
}

// job is one scheduled request.
type job struct {
	sched time.Time
	req   *multicast.Request // submit when set, else release of id
	hold  time.Duration
	id    int
	ps    *phaseStats
}

// loadgen drives a daemon open-loop: a dispatcher hands each request
// to the connection workers at its scheduled time, and workers
// schedule the release of every admitted session.
type loadgen struct {
	d      *daemonSystem
	jobs   chan job
	wake   chan struct{}
	wg     sync.WaitGroup
	acked  atomic.Int64 // state changes acknowledged (200 submits and releases)
	origin time.Time    // held release times are seconds since origin

	mu   sync.Mutex
	held departures
}

func newLoadgen(d *daemonSystem) *loadgen {
	lg := &loadgen{
		d:      d,
		origin: time.Now(),
		// The open loop's client-side backlog: requests due while every
		// connection is busy wait here, timed from their schedule. Sized
		// beyond any phase's request count so dispatch never blocks.
		jobs: make(chan job, 1<<16),
		wake: make(chan struct{}, 1),
	}
	for i := 0; i < clients; i++ {
		lg.wg.Add(1)
		go lg.worker()
	}
	return lg
}

// stop waits for every dispatched request to finish.
func (lg *loadgen) stop() {
	close(lg.jobs)
	lg.wg.Wait()
}

func (lg *loadgen) hold(id int, at time.Time) {
	lg.mu.Lock()
	heap.Push(&lg.held, departure{id: id, at: at.Sub(lg.origin).Seconds()})
	lg.mu.Unlock()
	select {
	case lg.wake <- struct{}{}:
	default:
	}
}

func (lg *loadgen) worker() {
	defer lg.wg.Done()
	for j := range lg.jobs {
		var r reply
		var cost float64
		if j.req != nil {
			r, cost = lg.d.submit(j.req)
		} else {
			r = lg.d.release(j.id)
		}
		lat := ms(r.done.Sub(j.sched))
		ps := j.ps
		ps.mu.Lock()
		switch {
		case r.err != nil:
			ps.fail(r.err)
			lat = math.Inf(1) // a failed request misses any latency limit
		case j.req != nil && r.status == http.StatusOK:
			ps.admitted++
			ps.cost += cost
		case j.req != nil:
			ps.rejected++
		default:
			ps.released++
		}
		if j.req != nil {
			ps.sub.add(r.done.Sub(ps.start), lat)
		} else {
			ps.rel.add(r.done.Sub(ps.start), lat)
		}
		ps.mu.Unlock()
		if r.err == nil && r.status == http.StatusOK {
			lg.acked.Add(1)
			if j.req != nil {
				// A session whose holding time ran out before its admission
				// was acknowledged is released at once.
				at := j.sched.Add(j.hold)
				if now := time.Now(); at.Before(now) {
					at = now
				}
				lg.hold(j.req.ID, at)
			}
		}
		ps.completed.Add(1)
	}
}

// arrival is one scheduled submit of an open-loop phase.
type arrival struct {
	at   time.Duration // offset from the phase start
	req  *multicast.Request
	hold time.Duration
}

// arrivals draws n Poisson arrivals conditioned on their count: n
// request contents and exponential holding times from a seeded
// PoissonGenerator, sent at n sorted uniform instants over span. A
// Poisson process given its count over a window is exactly this, so
// the offered rate is n/span in every run instead of varying with the
// Poisson count.
func arrivals(rate float64, span time.Duration, seed int64, firstID int) ([]arrival, error) {
	n := int(math.Round(rate * span.Seconds()))
	gen, err := multicast.NewPoissonGenerator(daemonNodes(), multicast.OnlineGeneratorConfig(),
		multicast.PoissonConfig{ArrivalsPerHour: rate, MeanHoldingHours: daemonErlangs / rate}, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0ff5e7))
	offs := make([]float64, n)
	for i := range offs {
		offs[i] = rng.Float64() * span.Seconds()
	}
	sort.Float64s(offs)
	out := make([]arrival, n)
	for i := range out {
		t, err := gen.Next()
		if err != nil {
			return nil, err
		}
		r := *t.Request
		r.ID = firstID + i
		out[i] = arrival{
			at:   time.Duration(offs[i] * float64(time.Second)),
			req:  &r,
			hold: time.Duration(t.HoldingHours() * float64(time.Second)),
		}
	}
	return out, nil
}

// run dispatches one phase: its arrivals from start on, and every held
// session whose release falls due before start+span. It returns when
// the phase's schedule is exhausted; requests may still be in flight.
func (lg *loadgen) run(start time.Time, span time.Duration, arr []arrival, ps *phaseStats) {
	ps.start = start
	end := start.Add(span)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; {
		lg.mu.Lock()
		haveRel := len(lg.held) > 0
		var relAt time.Time
		if haveRel {
			relAt = lg.origin.Add(time.Duration(lg.held[0].at * float64(time.Second)))
		}
		lg.mu.Unlock()
		isArrival := i < len(arr)
		var next time.Time
		if isArrival {
			next = start.Add(arr[i].at)
		}
		if haveRel && (!isArrival || relAt.Before(next)) {
			next, isArrival = relAt, false
		}
		if !isArrival && (!haveRel || !next.Before(end)) {
			return
		}
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-lg.wake:
				timer.Stop()
				select { // drop a tick that fired meanwhile
				case <-timer.C:
				default:
				}
				continue // a release may now fall due earlier
			}
		}
		j := job{sched: next, ps: ps}
		if isArrival {
			j.req, j.hold = arr[i].req, arr[i].hold
			i++
		} else {
			lg.mu.Lock()
			s := heap.Pop(&lg.held).(departure)
			lg.mu.Unlock()
			j.id = s.id
			j.sched = lg.origin.Add(time.Duration(s.at * float64(time.Second)))
		}
		ps.mu.Lock()
		ps.lag = append(ps.lag, ms(time.Since(j.sched)))
		ps.mu.Unlock()
		ps.dispatched.Add(1)
		lg.jobs <- j
	}
}

// tally is what one client saw of one phase.
type tally struct {
	sub, rel                     series
	transport                    dist
	admitted, rejected, released int
	failed                       int
	cost                         float64
	firstErr                     error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) add(o *tally) {
	t.sub.merge(&o.sub)
	t.rel.merge(&o.rel)
	t.transport = append(t.transport, o.transport...)
	t.admitted += o.admitted
	t.rejected += o.rejected
	t.released += o.released
	t.cost += o.cost
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// closedClient is one connection replaying its own timeline
// closed-loop. Its virtual time unit is one second at daemonRate.
type closedClient struct {
	t     *timeline
	tally *tally
	start time.Time // of the phase being tallied
	acked int
}

func newClosedClients(seed int64) ([]*closedClient, error) {
	var cs []*closedClient
	for i := 0; i < clients; i++ {
		t, err := newTimeline(daemonNodes(), daemonErlangs/clients, daemonErlangs/daemonRate,
			seed*1000+int64(i), i+1, clients)
		if err != nil {
			return nil, err
		}
		cs = append(cs, &closedClient{t: t, tally: &tally{}})
	}
	return cs, nil
}

// ops sends c's timeline over d, timing each request from its send.
func (c *closedClient) ops(d *daemonSystem) ops {
	record := func(r reply, lat *series) bool {
		if r.err != nil {
			c.tally.fail(r.err)
			lat.add(time.Since(c.start), math.Inf(1))
			return false
		}
		lat.add(r.done.Sub(c.start), ms(r.done.Sub(r.sent)))
		if d.handler != nil {
			c.tally.transport = append(c.tally.transport, ms(r.done.Sub(r.sent)-r.handler))
		}
		return true
	}
	return ops{
		admit: func(req *multicast.Request) (*core.Solution, error) {
			r, cost := d.submit(req)
			if !record(r, &c.tally.sub) {
				return nil, r.err
			}
			if r.status == http.StatusConflict {
				c.tally.rejected++
				return nil, core.ErrRejected
			}
			c.tally.admitted++
			c.tally.cost += cost
			c.acked++
			return nil, nil
		},
		depart: func(id int) error {
			r := d.release(id)
			if !record(r, &c.tally.rel) {
				return r.err
			}
			c.tally.released++
			c.acked++
			return nil
		},
	}
}

// replay runs every client's timeline concurrently until stop says so.
func replay(d *daemonSystem, cs []*closedClient, stop func(c *closedClient) bool) error {
	return concurrently(len(cs), func(i int) error {
		c, o := cs[i], cs[i].ops(d)
		var first error
		for !stop(c) {
			if err := c.t.advance(o); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

func runDaemon(cfg config) (*outcome, error) {
	o := newOutcome()
	policyName := policy
	var plans *planStats
	var ht *handlerTimes
	if cfg.trace {
		policyName, plans = timedPolicy(policy)
		ht = &handlerTimes{}
	}
	root, err := os.MkdirTemp(cfg.work, "daemon-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up: boot, then replay every timeline up to daemonWarmHolds
	// holding times so timing starts at steady occupancy.
	var (
		setups []float64
		d      *daemonSystem
		cs     []*closedClient
		dir    string
	)
	cpuSetup := readCPU()
	horizon := daemonWarmHolds * daemonErlangs / daemonRate
	for i := 0; i < setupReps; i++ {
		dir = filepath.Join(root, strconv.Itoa(i))
		start := time.Now()
		sys, err := bootDaemon(dir, policyName, ht)
		if err != nil {
			return nil, err
		}
		cls, err := newClosedClients(cfg.seed)
		if err == nil {
			err = replay(sys, cls, func(c *closedClient) bool { return c.t.now() >= horizon })
		}
		if err != nil {
			_ = sys.shutdown()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := sys.shutdown(); err != nil {
				return nil, err
			}
			continue
		}
		d, cs = sys, cls
	}
	o.setSetup(setups, cpuSetup)

	// Measured phase: closed loop.
	eng := d.srv.Router().Engine(daemonShard)
	var util utilAcc
	var reg0, reg1 regSnap
	if cfg.trace {
		if reg0, err = fetchRegistry(d.client, d.url); err != nil {
			return nil, err
		}
		plans.enabled.Store(true)
		ht.on.Store(true)
	}
	stopUtil := sampleUtil(cfg.trace, eng, &util)
	runtime.GC() // time the phase from the live heap, not set-up garbage
	rt0 := readRuntime()
	ph := startPhase()
	start := ph.start
	for _, c := range cs {
		c.tally, c.start = &tally{}, start
	}
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	err = replay(d, cs, func(*closedClient) bool { return !time.Now().Before(deadline) })
	ph.end()
	rt1 := readRuntime()
	stopUtil()
	if cfg.trace {
		ht.on.Store(false)
		plans.enabled.Store(false)
		if reg1, err = fetchRegistry(d.client, d.url); err != nil {
			return nil, err
		}
	}
	var all tally
	acked := 0
	for _, c := range cs {
		all.add(c.tally)
		acked += c.acked
	}
	if err != nil && all.firstErr == nil {
		all.fail(err)
	}
	decisions := all.admitted + all.rejected
	ackedOps := all.admitted + all.released
	o.attempted = len(all.sub.v) + len(all.rel.v)
	o.failed = all.failed
	var opsDone series
	opsDone.merge(&all.sub)
	opsDone.merge(&all.rel)
	o.steal = ph.stolenAll()
	ph.setRate(o, "throughput_ops_s", &opsDone)
	ph.setLatency(o, "latency_p50_ms", &all.sub, p50)
	ph.setLatency(o, "latency_p99_ms", &all.sub, p99)
	ph.setLatency(o, "release_latency_p99_ms", &all.rel, p99)
	if decisions > 0 {
		o.set("accept_ratio", float64(all.admitted)/float64(decisions), decisions)
	}
	if all.admitted > 0 {
		o.set("mean_tree_cost", all.cost/float64(all.admitted), all.admitted)
	}
	ph.setHeapPeak(o, &opsDone, daemonHeapOps)
	for k, v := range runtimeDelta(rt0, rt1, o.attempted) {
		o.set(k, v, o.attempted)
	}
	o.check("daemon: every response is 200 or 409 with a decodable body", all.firstErr)
	if cfg.trace {
		sub, rel := ht.submit.take(), ht.release.take()
		o.set("daemon.submit_handler_ms_p50", sub.quantile(0.5), len(sub))
		o.set("daemon.submit_handler_ms_p99", sub.quantile(0.99), len(sub))
		o.set("daemon.release_handler_ms_p50", rel.quantile(0.5), len(rel))
		o.set("daemon.transport_ms_p50", all.transport.quantile(0.5), len(all.transport))
		delta := reg1.since(reg0)
		if ackedOps > 0 {
			o.set("wal.fsyncs_per_ack", delta.counter("nfv_wal_fsyncs_total")/float64(ackedOps), ackedOps)
			o.set("wal.bytes_per_ack", delta.counter("nfv_wal_bytes_total")/float64(ackedOps), ackedOps)
		}
		o.set("wal.snapshots", delta.counter("nfv_wal_snapshots_total"), 0)
		coreLayers(o, delta, decisions, plans.lat.take())
		util.report(o)
		o.check("trace wrapper leaves decisions unchanged", checkParity(daemonNetwork, daemonErlangs, cfg.seed))
	}

	// Every session still held at the end, for the durability checks.
	var held []int
	if cfg.probe {
		lg, err := probeOpenLoop(cfg, d, cs, o)
		if err != nil {
			return nil, err
		}
		acked += int(lg.acked.Load())
		for _, s := range lg.held {
			held = append(held, s.id)
		}
	} else {
		for _, c := range cs {
			for _, s := range c.t.live {
				held = append(held, s.id)
			}
		}
	}
	recoverS, err := checkDurable(d, held, acked, dir, policyName, ht, o)
	if err != nil {
		return nil, err
	}
	o.set("wal.recover_s", recoverS, 0)
	return o, nil
}

// sampleUtil samples the engine's network every 20ms while on; the
// returned function stops it and waits for it to end.
func sampleUtil(on bool, eng interface {
	SnapshotState(func(*sdn.Network, []*core.Solution)) error
}, util *utilAcc) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !on {
			return
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = eng.SnapshotState(func(nw *sdn.Network, lives []*core.Solution) { utilization(nw, lives, util) })
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// probeOpenLoop drives the daemon open-loop: daemonRate arrivals/s for
// half the run, timed from their schedule, then the capacity ladder.
// Sessions the closed-loop clients still hold are released on their
// own schedule. It returns the stopped load generator.
func probeOpenLoop(cfg config, d *daemonSystem, cs []*closedClient, o *outcome) (*loadgen, error) {
	lg := newLoadgen(d)
	defer lg.stop()
	start := time.Now()
	for _, c := range cs {
		for _, s := range c.t.live {
			left := math.Max(0, s.at-c.t.now())
			lg.hold(s.id, start.Add(time.Duration(left*float64(time.Second))))
		}
	}
	span := time.Duration(cfg.seconds / 2 * float64(time.Second))
	arr, err := arrivals(daemonRate, span, cfg.seed*7919+1, 1<<24)
	if err != nil {
		return nil, err
	}
	open := &phaseStats{}
	lg.run(start, span, arr, open)
	open.wait()
	open.mu.Lock()
	lag := open.lag.quantile(0.99)
	o.set("open_loop.latency_p50_ms", open.sub.v.quantile(0.5), len(open.sub.v))
	o.set("open_loop.latency_p99_ms", open.sub.v.quantile(0.99), len(open.sub.v))
	o.set("loadgen.lag_ms_p99", lag, len(open.lag))
	openErr := open.firstErr
	open.mu.Unlock()
	o.check("open loop: every response is 200 or 409 with a decodable body", openErr)
	o.check("open loop: generator kept to its schedule", func() error {
		if lag > lagLimitMs {
			return fmt.Errorf("dispatch lag p99 %.2f ms > %.0f ms: the open-loop latencies of this run are not valid", lag, lagLimitMs)
		}
		return nil
	}())

	maxRate := 0.0
	next := 1 << 25
	for i, rate := range ladder {
		rspan := time.Duration(rungSeconds * float64(time.Second))
		rarr, err := arrivals(rate, rspan, cfg.seed*7919+int64(i)+2, next)
		if err != nil {
			return nil, err
		}
		next += len(rarr)
		rung := &phaseStats{}
		lg.run(time.Now(), rspan, rarr, rung)
		backlog := rung.dispatched.Load() - rung.completed.Load()
		rung.wait()
		rung.mu.Lock()
		p99, rlag := rung.sub.v.quantile(0.99), rung.lag.quantile(0.99)
		n, failed := len(rung.sub.v), rung.failed
		rung.mu.Unlock()
		ok := p99 <= sloP99Ms && rlag <= lagLimitMs && float64(backlog) <= clients+rate*sloP99Ms/1000
		verdict := "meets the limit"
		if !ok {
			verdict = "misses the limit"
		}
		fmt.Printf("# ladder %5.0f/s: submit p99 %.2f ms (n=%d), backlog %d, lag p99 %.2f ms, failed %d: %s\n",
			rate, p99, n, backlog, rlag, failed, verdict)
		if !ok {
			break
		}
		maxRate = rate
	}
	o.set("max_rate_at_slo", maxRate, 0)
	return lg, nil
}

// daemonNetwork builds the daemon's substrate the way daemon.New does.
func daemonNetwork() (*sdn.Network, error) {
	return sdn.NewNetwork(topology.GEANT(), sdn.DefaultConfig(), rand.New(rand.NewSource(daemonSubstrateSeed)))
}

// checkDurable runs the durability checks once the load has stopped:
// the WAL's last LSN equals the acknowledged state changes, a re-boot
// from the WAL reproduces the shard's state fingerprint and adopts
// every held session, and once those are released the report shows
// none live. It shuts d down and returns the re-boot time.
func checkDurable(d *daemonSystem, held []int, acked int, dir, policyName string, ht *handlerTimes, o *outcome) (float64, error) {
	lsnCheck := func(sys *daemonSystem, want int) error {
		rep, err := sys.report()
		if err != nil {
			return err
		}
		if len(rep.WAL) != 1 || rep.WAL[0].LastLSN != uint64(want) {
			return fmt.Errorf("WAL positions %+v, acknowledged state changes %d", rep.WAL, want)
		}
		return nil
	}
	o.check("daemon: WAL last LSN equals acknowledged state changes", lsnCheck(d, acked))
	before, err := wal.Fingerprint(d.srv.Router().Engine(daemonShard))
	if err != nil {
		return 0, err
	}
	if err := d.shutdown(); err != nil {
		return 0, err
	}
	again, err := bootDaemon(dir, policyName, ht)
	if err != nil {
		return 0, fmt.Errorf("re-boot from the WAL: %w", err)
	}
	defer func() { _ = again.shutdown() }()
	o.check("daemon: re-boot from the WAL reproduces the shard fingerprint", func() error {
		boot := again.srv.Boot()
		if len(boot) != 1 || boot[0].Fingerprint != before {
			return fmt.Errorf("boot %+v, fingerprint before shutdown %s", boot, before)
		}
		if boot[0].Adopted != len(held) {
			return fmt.Errorf("adopted %d sessions, %d were held", boot[0].Adopted, len(held))
		}
		return nil
	}())
	var relErr error
	for _, id := range held {
		if r := again.release(id); r.err != nil {
			relErr = r.err
			break
		}
		acked++
	}
	o.check("daemon: every held session releases after the re-boot", relErr)
	o.check("daemon: report shows 0 live at the end", func() error {
		rep, err := again.report()
		if err != nil {
			return err
		}
		if rep.Report.Live != 0 {
			return fmt.Errorf("%d sessions live", rep.Report.Live)
		}
		return nil
	}())
	o.check("daemon: final WAL LSN equals acknowledged state changes", lsnCheck(again, acked))
	return again.boot.Seconds(), nil
}

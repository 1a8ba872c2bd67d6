package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

const (
	// serveRate is the open-loop arrival rate (requests/s). At 8 misses/s
	// two simulations rarely run at once on a 2-core host, so the hit tail
	// is not set by whether a core happened to be free; at 30/s it is, and
	// hit p95 swings between 5 and 31 ms from run to run. A 25 s window
	// yields about 200 requests of each kind.
	serveRate = 16
	// hitShare of the requests repeat a hot spec; the rest are misses.
	hitShare = 0.5
	// hotSetSize is the number of hot specs, one per policy and mix, well
	// inside the 128-entry result cache so no hot result is evicted
	// between its repeats.
	hotSetSize = 16
	// serveCheckMisses is how many misses the output check re-runs.
	serveCheckMisses = 8
	// allocProbeRuns is how many fresh runs the runqueue.allocs_per_run
	// probe submits one at a time after the timed window.
	allocProbeRuns = 8
)

// pdpadPool is the pool configuration pdpad uses with its default flags.
func pdpadPool(st *store.Store) runqueue.Config {
	return runqueue.Config{
		BaseWorkers: 4, MaxWorkers: 8, Warmup: 500 * time.Millisecond,
		QueueLimit: 256, CacheSize: 128, TraceLimit: 2000, Store: st,
	}
}

const storeSync = 50 * time.Millisecond

// daemonSimulate is the pool's default simulation call, which the traced
// run wraps to time the simulator inside the runqueue.
func daemonSimulate(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
	ws, opts := spec.Facade()
	opts.DecisionTrace = 2000
	return pdpasim.RunContext(ctx, ws, opts)
}

// gridRun is the paper-size spec for one point of the grid (members order)
// with the given seed.
func gridRun(point int, seed int64) client.Spec {
	pol := gridPolicies[point%len(gridPolicies)]
	load := gridLoads[point/len(gridPolicies)%len(gridLoads)]
	mix := gridMixes[point/(len(gridPolicies)*len(gridLoads))%len(gridMixes)]
	return client.Spec{
		Workload: client.Workload{Mix: mix, Load: load, NCPU: gridNCPU, WindowS: gridWindowS, Seed: seed},
		Options:  client.RunOptions{Policy: string(pol), Seed: seed},
	}
}

// gridPoints deals grid points in shuffled rounds that each cover the whole
// grid once, so every run's misses have the same policy, mix and load
// composition: the simulation cost of a spec depends on all three.
type gridPoints struct {
	rng  *rand.Rand
	left []int
}

func (g *gridPoints) next() int {
	if len(g.left) == 0 {
		g.left = g.rng.Perm(len(gridPolicies) * len(gridLoads) * len(gridMixes))
	}
	p := g.left[0]
	g.left = g.left[1:]
	return p
}

func wireSpec(s client.Spec) runqueue.Spec {
	return runqueue.Spec{
		Workload: runqueue.WorkloadSpec{Mix: s.Workload.Mix, Load: s.Workload.Load, NCPU: s.Workload.NCPU,
			WindowS: s.Workload.WindowS, Seed: s.Workload.Seed},
		Options: runqueue.RunOptions{Policy: s.Options.Policy, Seed: s.Options.Seed},
	}
}

type serveRequest struct {
	at   time.Duration // due time after the window opens
	spec client.Spec
	hot  bool
}

// serveTraffic builds the open-loop schedule: exactly rate×seconds arrivals
// placed as a Poisson process conditioned on its count, hitShare of them
// repeating a hot spec and the rest fresh paper-size specs.
func serveTraffic(seed int64, seconds float64, scale int) (hot []client.Spec, reqs []serveRequest) {
	rng := rand.New(rand.NewSource(seed))
	nextSeed := int64(1 + rng.Intn(1<<20))
	// One hot spec per policy and mix, so warming the hot set costs about
	// the same whatever the seed.
	for i := 0; i < hotSetSize/scale; i++ {
		point := i/len(gridPolicies)*len(gridPolicies)*len(gridLoads) + rng.Intn(len(gridLoads))*len(gridPolicies) + i%len(gridPolicies)
		hot = append(hot, gridRun(point, nextSeed))
		nextSeed++
	}
	points := &gridPoints{rng: rng}
	n := int(serveRate*seconds + 0.5)
	ats := make([]float64, n)
	for i := range ats {
		ats[i] = rng.Float64() * seconds
	}
	sort.Float64s(ats)
	isHot := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(hitShare*float64(n)+0.5)] {
		isHot[i] = true
	}
	for i, at := range ats {
		r := serveRequest{at: time.Duration(at * float64(time.Second)), hot: isHot[i]}
		if r.hot {
			r.spec = hot[rng.Intn(len(hot))]
		} else {
			r.spec = gridRun(points.next(), nextSeed)
			nextSeed++
		}
		reqs = append(reqs, r)
	}
	return hot, reqs
}

// daemon is one in-process pdpad: pool and v1 server on a loopback
// listener, and a client limited to nproc connections.
type daemon struct {
	pool *runqueue.Pool
	srv  *http.Server
	hc   *http.Client
	cli  *client.Client

	// Traced runs only.
	srvStats, cliStats *routeStats
	simMu              sync.Mutex
	simSpans           map[string][2]time.Time // cache key → simulate start, end
}

func startDaemon(e *env) (*daemon, error) {
	d := &daemon{srvStats: newRouteStats(), cliStats: newRouteStats(), simSpans: map[string][2]time.Time{}}
	cfg := pdpadPool(nil)
	if e.trace != nil {
		cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			start := time.Now()
			out, err := daemonSimulate(ctx, spec)
			d.simMu.Lock()
			d.simSpans[spec.Key()] = [2]time.Time{start, time.Now()}
			d.simMu.Unlock()
			return out, err
		}
	}
	d.pool = runqueue.New(cfg)
	var h http.Handler = server.New(d.pool)
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	if e.trace != nil {
		h = &timedHandler{next: h, layer: "server", tr: e.trace, stats: d.srvStats}
		rt = &timedTransport{base: rt, layer: "transport", tr: e.trace, stats: d.cliStats}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.srv = &http.Server{Handler: h}
	go d.srv.Serve(ln)
	d.hc = &http.Client{Transport: rt}
	d.cli = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(d.hc))
	return d, nil
}

// stop drains the pool and releases the listener.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.pool.Drain(ctx)
	if d.srv != nil {
		d.srv.Shutdown(ctx)
	}
	if d.hc != nil {
		d.hc.CloseIdleConnections()
	}
}

// fetch submits one spec through the client, waits for the pool to settle
// it, and fetches the result body.
func (d *daemon) fetch(ctx context.Context, spec client.Spec) (client.RunView, error) {
	sub, err := d.cli.SubmitRun(ctx, client.SubmitRunRequest{Workload: spec.Workload, Options: spec.Options})
	if err != nil {
		return client.RunView{}, err
	}
	if err := waitDone(ctx, d.pool, sub.ID); err != nil {
		return client.RunView{}, err
	}
	return d.cli.Run(ctx, sub.ID)
}

func waitDone(ctx context.Context, pool *runqueue.Pool, id string) error {
	done, err := pool.Done(id)
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// bodyHash fingerprints a result body in compact form, so the daemon's
// bytes and the facade's indented output compare equal when identical.
func bodyHash(b []byte) [32]byte {
	var c bytes.Buffer
	if err := json.Compact(&c, b); err != nil {
		return sha256.Sum256(b)
	}
	return sha256.Sum256(c.Bytes())
}

// outcome is one request's fate in the timed window.
type outcome struct {
	due, sent, end time.Time
	hit, failed    bool
	id, key        string
	body           [32]byte
	submitMs       float64
	getMs          float64
	notify         time.Time // when the generator saw the run settle
}

// runServe drives one in-process daemon with open-loop traffic: a miss is a
// fresh spec, a hit repeats a hot one. Each request is timed from its due
// time until its result body is received.
func runServe(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	hot, reqs := serveTraffic(e.seed, e.seconds, e.scale)
	hotBody := map[string][32]byte{}

	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(e); err != nil {
			return nil, err
		}
		// Warm-up: the hot set is simulated once so its repeats are hits.
		for _, spec := range hot {
			v, err := d.fetch(ctx, spec)
			if err != nil || v.State != "done" {
				d.stop()
				return nil, fmt.Errorf("warm-up run: state %q: %v", v.State, err)
			}
			hotBody[wireSpec(spec).Key()] = bodyHash(v.Result)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	defer d.stop()
	d.srvStats.reset()
	d.cliStats.reset()

	before := d.pool.Stats()
	probe := startLockProbe(e, d.pool)

	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range reqs {
		due := t0.Add(reqs[i].at)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = d.serveOne(ctx, e.trace, i, reqs[i].spec, due)
		}(i)
	}
	wg.Wait()
	probe.stop()
	after := d.pool.Stats()

	var hits, misses, late []float64
	var last time.Time
	for i, o := range outs {
		res.attempted++
		if o.failed || o.end.IsZero() {
			res.failed++
			continue
		}
		ms := msSince(o.due, o.end)
		late = append(late, msSince(o.due, o.sent))
		if o.hit {
			hits = append(hits, ms)
			if want, ok := hotBody[o.key]; !ok || want != o.body {
				res.checkf("request %d: cache-hit body differs from its miss body", i)
			}
		} else {
			misses = append(misses, ms)
		}
		if o.end.After(last) {
			last = o.end
		}
	}
	if len(hits) == 0 || len(misses) == 0 {
		return nil, errors.New("no request completed")
	}
	res.e2e["runs_per_s"] = float64(len(misses)) / last.Sub(t0).Seconds()
	res.setLatencies(misses, hits)

	// Output check: hot results and a sample of misses must equal the
	// facade's output for the same spec.
	checked := 0
	for _, spec := range hot {
		checkFacade(ctx, res, wireSpec(spec), hotBody[wireSpec(spec).Key()])
	}
	for i, o := range outs {
		if checked == serveCheckMisses {
			break
		}
		if !o.hit && !o.failed && !o.end.IsZero() && i%7 == 0 {
			checkFacade(ctx, res, wireSpec(reqs[i].spec), o.body)
			checked++
		}
	}

	if e.trace == nil {
		return res, nil
	}
	m := res.layer
	m["error_frac"] = float64(res.failed) / float64(res.attempted)
	m["gen.late_ms.p95"], m["gen.late_ms.max"] = percentile(late, 95), maxOf(late)
	probe.report(m)
	d.layerMetrics(e, outs, before, after, m)
	var missSpecs []runqueue.Spec
	for _, r := range reqs {
		if !r.hot {
			missSpecs = append(missSpecs, wireSpec(r.spec))
		}
	}
	if err := simLayers(ctx, missSpecs, m); err != nil {
		return nil, err
	}
	if err := storeLayer(ctx, e, missSpecs, m); err != nil {
		return nil, err
	}
	m["runqueue.allocs_per_run"] = d.allocProbe(ctx, e.seed)
	return res, nil
}

// serveOne sends one request at its due time and follows it to its result.
func (d *daemon) serveOne(ctx context.Context, tr *tracer, i int, spec client.Spec, due time.Time) outcome {
	o := outcome{due: due, sent: time.Now(), key: wireSpec(spec).Key()}
	req := "req-" + strconv.Itoa(i)
	top := tr.begin("request", 0, req, due)
	tr.add("gen.late", top, req, due, o.sent)

	start := time.Now()
	cs := tr.begin("client.submit", top, req, start)
	sub, err := d.cli.SubmitRun(withSpan(ctx, cs, req), client.SubmitRunRequest{Workload: spec.Workload, Options: spec.Options})
	end := time.Now()
	tr.end(cs, end)
	o.submitMs = msSince(start, end)
	if err != nil {
		o.failed = true
		return o
	}
	o.id, o.hit = sub.ID, sub.CacheHit
	if err := waitDone(ctx, d.pool, sub.ID); err != nil {
		o.failed = true
		return o
	}
	o.notify = time.Now()

	start = time.Now()
	cg := tr.begin("client.get", top, req, start)
	v, err := d.cli.Run(withSpan(ctx, cg, req), sub.ID)
	o.end = time.Now()
	tr.end(cg, o.end)
	tr.end(top, o.end)
	o.getMs = msSince(start, o.end)
	if err != nil || v.State != "done" {
		o.failed = true
		return o
	}
	o.body = bodyHash(v.Result)
	return o
}

// checkFacade compares a result body with a fresh facade run of its spec.
func checkFacade(ctx context.Context, res *result, spec runqueue.Spec, got [32]byte) {
	out, err := daemonSimulate(ctx, spec)
	if err != nil {
		res.checkf("facade run %s: %v", spec.Key(), err)
		return
	}
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		res.checkf("facade encode %s: %v", spec.Key(), err)
		return
	}
	if bodyHash(buf.Bytes()) != got {
		res.checkf("result body for %s differs from the facade's output", spec.Key())
	}
}

// layerMetrics fills the client, server and runqueue metrics of a traced
// serve run, adds the runqueue spans, and runs the accounting check.
func (d *daemon) layerMetrics(e *env, outs []outcome, before, after runqueue.Stats, m map[string]float64) {
	var submit, get, wait, exec, simMs, finish []float64
	for i, o := range outs {
		if o.failed || o.end.IsZero() {
			continue
		}
		submit, get = append(submit, o.submitMs), append(get, o.getMs)
		if o.hit {
			continue
		}
		snap, err := d.pool.Get(o.id)
		if err != nil || snap.Started.IsZero() {
			continue
		}
		req := "req-" + strconv.Itoa(i)
		wait = append(wait, msSince(snap.Submitted, snap.Started))
		exec = append(exec, msSince(snap.Started, snap.Finished))
		e.trace.add("runqueue.queue_wait", 0, req, snap.Submitted, snap.Started)
		d.simMu.Lock()
		sp, ok := d.simSpans[snap.Key]
		d.simMu.Unlock()
		if ok {
			simMs = append(simMs, msSince(sp[0], sp[1]))
			finish = append(finish, msSince(snap.Started, snap.Finished)-msSince(sp[0], sp[1]))
			e.trace.add("runqueue.simulate", 0, req, sp[0], sp[1])
			e.trace.add("runqueue.finish", 0, req, sp[1], snap.Finished)
		}
		e.trace.add("runqueue.notify", 0, req, snap.Finished, o.notify)
	}
	m["client.submit_ms.p50"], m["client.submit_ms.p95"] = median(submit), percentile(submit, 95)
	m["client.get_ms.p50"], m["client.get_ms.p95"] = median(get), percentile(get, 95)
	post, getRun := d.srvStats.durations("post_runs"), d.srvStats.durations("get_run")
	m["server.post_runs_ms.p50"], m["server.post_runs_ms.p95"] = median(post), percentile(post, 95)
	m["server.get_run_ms.p50"], m["server.get_run_ms.p95"] = median(getRun), percentile(getRun, 95)
	d.srvStats.mu.Lock()
	if n := len(d.srvStats.ms["get_run"]); n > 0 {
		m["server.get_run_kb"] = float64(d.srvStats.bytes["get_run"]) / float64(n) / 1024
	}
	for _, c := range []string{"2xx", "4xx", "429", "5xx"} {
		m["server.status."+c] = float64(d.srvStats.status[c])
	}
	d.srvStats.mu.Unlock()
	m["runqueue.queue_wait_ms.p50"], m["runqueue.queue_wait_ms.p95"] = median(wait), percentile(wait, 95)
	m["runqueue.exec_ms.p50"], m["runqueue.exec_ms.p95"] = median(exec), percentile(exec, 95)
	m["runqueue.simulate_ms.p50"], m["runqueue.simulate_ms.p95"] = median(simMs), percentile(simMs, 95)
	m["runqueue.finish_ms.p50"] = median(finish)
	hitsN, missN := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hitsN+missN > 0 {
		m["runqueue.hit_ratio"] = float64(hitsN) / float64(hitsN+missN)
	}
	m["runqueue.dedup"] = float64(after.DedupHits - before.DedupHits)
	m["runqueue.evictions"] = float64(after.CacheEvictions - before.CacheEvictions)

	// Accounting: on the miss path, the layers' median self times should
	// add up to the client-observed median.
	var missE2E []float64
	missReqs := map[string]bool{}
	for i, o := range outs {
		if !o.hit && !o.failed && !o.end.IsZero() {
			missE2E = append(missE2E, msSince(o.due, o.end))
			missReqs["req-"+strconv.Itoa(i)] = true
		}
	}
	m["accounting.gap_frac"] = accountingGap(e.trace, missE2E, missReqs, []string{
		"gen.late", "client.submit", "transport.post_runs", "server.post_runs",
		"runqueue.queue_wait", "runqueue.simulate", "runqueue.finish", "runqueue.notify",
		"client.get", "transport.get_run", "server.get_run",
	}, "miss path")
}

// accountingGap sums the named layers' median self times over the given
// requests and compares the sum with the median end-to-end time of the same
// requests: the result is (sum − e2e) / e2e.
func accountingGap(tr *tracer, e2e []float64, reqs map[string]bool, layers []string, path string) float64 {
	self := tr.selfTimes()
	sum := 0.0
	var parts []string
	for _, l := range layers {
		var times []float64
		for req, v := range self[l] {
			if reqs[req] {
				times = append(times, v)
			}
		}
		v := median(times)
		sum += v
		parts = append(parts, fmt.Sprintf("%s=%.2f", l, v))
	}
	want := median(e2e)
	if want == 0 {
		return 0
	}
	gap := (sum - want) / want
	fmt.Printf("accounting (%s): layers sum %.2f ms vs client median %.2f ms (gap %+.1f%%): %s\n",
		path, sum, want, 100*gap, strings.Join(parts, " "))
	return gap
}

// storeLayer measures the durable store, which no timed workload runs (see
// NOTES.md): after the window, the run's misses are replayed through a
// second pool persisting to a fresh directory with pdpad's store settings,
// at most MaxWorkers in flight.
func storeLayer(ctx context.Context, e *env, specs []runqueue.Spec, m map[string]float64) error {
	dir, err := os.MkdirTemp(e.outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{SyncInterval: storeSync})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	cfg := pdpadPool(st)
	pool := runqueue.New(cfg)
	probe := startLockProbe(e, pool)
	ioBefore := procWriteBytes()
	sem := make(chan struct{}, cfg.MaxWorkers)
	var wg sync.WaitGroup
	for _, spec := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(spec runqueue.Spec) {
			defer func() { <-sem; wg.Done() }()
			if sub, err := pool.Submit(spec, 0); err == nil {
				waitDone(ctx, pool, sub.ID)
			}
		}(spec)
	}
	wg.Wait()
	probe.stop()
	written := float64(procWriteBytes() - ioBefore)
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	pool.Drain(dctx)
	sa := st.Stats()
	if err := st.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	m["store.appends"] = float64(sa.AppendedEntries)
	if sa.AppendedEntries > 0 {
		m["store.kb_per_append"] = float64(sa.AppendedBytes) / float64(sa.AppendedEntries) / 1024
	}
	m["store.fsyncs"] = float64(sa.Fsyncs)
	m["store.compactions"] = float64(sa.Compactions)
	m["store.disk_write_mb"] = written / (1 << 20)
	if sa.AppendedBytes > 0 {
		m["store.write_amp"] = written / float64(sa.AppendedBytes)
	}
	m["store.lock_probe_ms.max"] = maxOf(probe.ms)
	return nil
}

// allocProbe submits fresh specs one at a time straight to the pool and
// returns the heap allocations per run, simulation included.
func (d *daemon) allocProbe(ctx context.Context, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for i := 0; i < allocProbeRuns; i++ {
		sub, err := d.pool.Submit(wireSpec(gridRun(rng.Intn(48), 1<<40+int64(i))), 0)
		if err != nil || waitDone(ctx, d.pool, sub.ID) != nil {
			continue
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if n == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// lockProbe times Pool.Stats calls during the timed window: Stats takes
// the pool lock, so a slow call shows how long something else held it.
type lockProbe struct {
	pool          *runqueue.Pool
	stopc, done   chan struct{}
	ms            []float64
	inflight, qmx int
}

const lockProbeEvery = 5 * time.Millisecond

func startLockProbe(e *env, pool *runqueue.Pool) *lockProbe {
	p := &lockProbe{pool: pool, stopc: make(chan struct{}), done: make(chan struct{})}
	if e.trace == nil {
		close(p.done)
		return p
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(lockProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
			start := time.Now()
			st := pool.Stats()
			p.ms = append(p.ms, msSince(start, time.Now()))
			p.inflight = max(p.inflight, st.Inflight)
			p.qmx = max(p.qmx, st.QueueDepth)
		}
	}()
	return p
}

func (p *lockProbe) stop() {
	close(p.stopc)
	<-p.done
}

func (p *lockProbe) report(m map[string]float64) {
	m["runqueue.inflight_max"] = float64(p.inflight)
	m["runqueue.queue_depth_max"] = float64(p.qmx)
	m["runqueue.lock_probe_ms.p99"] = percentile(p.ms, 99)
	m["runqueue.lock_probe_ms.max"] = maxOf(p.ms)
}

// procWriteBytes reads this process's write_bytes from /proc/self/io: the
// bytes it caused to be sent to storage.
func procWriteBytes() uint64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pdpasim/client"
	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

const (
	fleetNodes = 2
	// fleetSeeds is the number of seeds per fleet sweep: 2 × the 48-run
	// paper grid = 96 members, so a 20 s window holds about ten sweeps.
	fleetSeeds = 2
	// fleetPoll is the client's WaitSweep cadence.
	fleetPoll = 50 * time.Millisecond
	// fleetPause separates consecutive sweeps. Each node keeps up to 2048
	// finished runs with their ~0.4 MB decision traces, so back-to-back
	// sweeps grow the process past 1.5 GB in a 20 s window; the pause,
	// filled with reads of the finished sweep, keeps it under 1 GB.
	fleetPause = 1200 * time.Millisecond
	// fleetReadEvery paces the reads of a finished sweep during the pause.
	fleetReadEvery = 50 * time.Millisecond
	// pdpadHeartbeat is pdpad's default -heartbeat.
	pdpadHeartbeat = 2 * time.Second
)

func fleetSweepReq(seeds []int64, scale int) client.SubmitSweepRequest {
	spec := client.SweepSpec{Mixes: gridMixes, Loads: gridLoads, Seeds: seeds, NCPU: gridNCPU, WindowS: gridWindowS}
	for _, p := range gridPolicies {
		spec.Policies = append(spec.Policies, string(p))
	}
	if scale > 1 {
		spec.Mixes, spec.Loads = spec.Mixes[:1], spec.Loads[:1]
	}
	return client.SubmitSweepRequest{SweepSpec: spec}
}

// node is one in-process fleet node: a pdpad pool and v1 server joined to
// the coordinator by an agent.
type node struct {
	pool  *runqueue.Pool
	srv   *http.Server
	agent *fleet.Agent
}

// cluster is a coordinator plus its nodes, all on loopback listeners,
// composed as pdpad's -coordinator and -node modes compose them.
type cluster struct {
	coord *fleet.Coordinator
	csrv  *http.Server
	hc    *http.Client
	cli   *client.Client
	nodes []*node

	// Traced runs only.
	coordStats, nodeStats, agentStats, cliStats *routeStats
	hbMu                                        sync.Mutex
	lastBeat                                    map[int]time.Time
	beatGaps                                    []float64
}

// resetStats forgets the set-up traffic, so traced counts cover the timed
// window only.
func (c *cluster) resetStats() {
	for _, s := range []*routeStats{c.coordStats, c.nodeStats, c.agentStats, c.cliStats} {
		s.reset()
	}
	c.hbMu.Lock()
	c.beatGaps = nil
	c.hbMu.Unlock()
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func startCluster(ctx context.Context, e *env) (*cluster, error) {
	c := &cluster{coordStats: newRouteStats(), nodeStats: newRouteStats(), agentStats: newRouteStats(), cliStats: newRouteStats(),
		lastBeat: map[int]time.Time{}}
	cfg := fleet.Config{Health: fleet.HealthConfig{HeartbeatInterval: pdpadHeartbeat}, MaxRequeues: 3}
	agentClient := func(int) *http.Client { return nil }
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	if e.trace != nil {
		cfg.HTTPClient = &http.Client{Transport: &timedTransport{base: &http.Transport{}, layer: "node", tr: e.trace, stats: c.nodeStats}}
		agentClient = func(i int) *http.Client {
			return &http.Client{Transport: &timedTransport{base: &http.Transport{}, layer: "agent", tr: e.trace, stats: c.agentStats,
				onSend: func(route string, at time.Time) { c.beat(i, route, at) }}}
		}
		rt = &timedTransport{base: rt, layer: "transport", tr: e.trace, stats: c.cliStats}
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	c.coord = coord
	var h http.Handler = coord
	if e.trace != nil {
		h = &timedHandler{next: coord, layer: "coord", tr: e.trace, stats: c.coordStats}
	}
	var base string
	if c.csrv, base, err = serveOn(h); err != nil {
		c.stop()
		return nil, err
	}
	for i := 0; i < fleetNodes; i++ {
		pool := runqueue.New(pdpadPool(nil))
		var nh http.Handler = server.New(pool, server.WithRole(server.RoleNode))
		if e.trace != nil {
			nh = &timedHandler{next: nh, layer: "node_server", tr: e.trace, stats: newRouteStats()}
		}
		srv, addr, err := serveOn(nh)
		if err != nil {
			pool.Drain(ctx)
			c.stop()
			return nil, err
		}
		n := &node{pool: pool, srv: srv}
		c.nodes = append(c.nodes, n)
		n.agent = fleet.StartAgent(fleet.AgentConfig{
			Coordinator: base, Advertise: addr, Name: fmt.Sprintf("n%d", i),
			CPUs: 4, BaseWorkers: 4, MaxWorkers: 8, HTTPClient: agentClient(i),
		}, pool)
		select {
		case <-n.agent.Registered():
		case <-ctx.Done():
			c.stop()
			return nil, errors.New("node never registered")
		}
	}
	c.hc = &http.Client{Transport: rt}
	c.cli = client.New(base, client.WithHTTPClient(c.hc))
	return c, nil
}

// beat records the gap between node i's heartbeats.
func (c *cluster) beat(i int, route string, at time.Time) {
	if route != "heartbeat" {
		return
	}
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	if t, ok := c.lastBeat[i]; ok {
		c.beatGaps = append(c.beatGaps, msSince(t, at))
	}
	c.lastBeat[i] = at
}

// lastFinish is when the last run submitted to any node since `since`
// finished: the moment a serial sweep's members were all done.
func (c *cluster) lastFinish(since time.Time) time.Time {
	var last time.Time
	for _, n := range c.nodes {
		for _, s := range n.pool.Runs() {
			if !s.Submitted.Before(since) && s.Finished.After(last) {
				last = s.Finished
			}
		}
	}
	return last
}

func (c *cluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		n.agent.Stop()
	}
	c.coord.Close()
	for _, n := range c.nodes {
		n.pool.Drain(ctx)
		n.srv.Shutdown(ctx)
	}
	if c.csrv != nil {
		c.csrv.Shutdown(ctx)
	}
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// sweepRun submits one sweep and waits for its cells.
type sweepRun struct {
	id            string
	req           client.SubmitSweepRequest
	start, posted time.Time
	end           time.Time
	members       int
	cells         []byte
	failed        bool
}

func runSweepOn(ctx context.Context, cli *client.Client, tr *tracer, req client.SubmitSweepRequest, tag string) sweepRun {
	s := sweepRun{req: req, start: time.Now()}
	top := tr.begin("sweep", 0, tag, s.start)
	ps := tr.begin("client.submit_sweep", top, tag, s.start)
	sctx := ctx
	if tr != nil {
		sctx = withSpan(ctx, ps, tag)
	}
	sub, err := cli.SubmitSweep(sctx, req)
	s.posted = time.Now()
	tr.end(ps, s.posted)
	if err != nil {
		s.failed = true
		return s
	}
	s.id, s.members = sub.ID, len(sub.RunIDs)
	ws := tr.begin("client.wait_sweep", top, tag, s.posted)
	if tr != nil {
		sctx = withSpan(ctx, ws, tag)
	}
	v, err := cli.WaitSweep(sctx, sub.ID, fleetPoll)
	s.end = time.Now()
	tr.end(ws, s.end)
	tr.end(top, s.end)
	if err != nil || v.State != "done" {
		s.failed = true
		return s
	}
	s.cells = v.Cells
	return s
}

// runFleetSweep runs paper-grid sweeps of fleetSeeds seeds each, one after
// another, through a coordinator and two nodes. Each sweep, from submit to
// cells, is a miss; re-reading a finished sweep's cells is a hit.
func runFleetSweep(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	seeds := func() []int64 {
		out := make([]int64, fleetSeeds)
		for i := range out {
			out[i] = 1 + rng.Int63n(1<<30)
		}
		return out
	}

	var c *cluster
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if c != nil {
			c.stop()
		}
		var err error
		if c, err = startCluster(ctx, e); err != nil {
			return nil, err
		}
		// Warm-up: one grid slice through the fleet.
		if w := runSweepOn(ctx, c.cli, nil, fleetSweepReq(seeds()[:1], e.scale), "warmup"); w.failed {
			c.stop()
			return nil, errors.New("warm-up sweep failed")
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	defer c.stop()
	c.resetStats()

	before := make([]uint64, len(c.nodes))
	for i, n := range c.nodes {
		before[i] = n.pool.Stats().Submitted
	}
	var runs []sweepRun
	var hits []float64
	window := time.Duration(e.seconds * float64(time.Second))
	t0 := time.Now()
	for time.Since(t0) < window && ctx.Err() == nil {
		req := fleetSweepReq(seeds(), e.scale)
		tag := "sweep-" + strconv.Itoa(len(runs)+1)
		s := runSweepOn(ctx, c.cli, e.trace, req, tag)
		res.attempted++
		if s.failed {
			res.failed++
			continue
		}
		if e.trace != nil {
			// The blocking path after the POST: members still running on
			// the nodes, then the poll that notices they are done.
			last := c.lastFinish(s.start)
			e.trace.add("nodes.execute", 0, tag, s.posted, last)
			e.trace.add("client.detect", 0, tag, last, s.end)
		}
		runs = append(runs, s)
		// The pause before the next sweep: readers fetch the finished
		// sweep's cells, and each read is a hit.
		for end := time.Now().Add(fleetPause); time.Now().Before(end) && ctx.Err() == nil; {
			res.attempted++
			rs := time.Now()
			v, err := c.cli.Sweep(ctx, s.id)
			if err != nil || v.State != "done" {
				res.failed++
			} else {
				hits = append(hits, msSince(rs, time.Now()))
				if !bytes.Equal(v.Cells, s.cells) {
					res.checkf("re-read of %s returned different cells", s.id)
				}
			}
			t := time.NewTimer(fleetReadEvery)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
	}
	if len(runs) == 0 {
		return nil, errors.New("no fleet sweep completed")
	}
	var lat []float64
	members, busy := 0, 0.0
	for _, s := range runs {
		lat = append(lat, msSince(s.start, s.end))
		members += s.members
		busy += s.end.Sub(s.start).Seconds()
	}
	// Throughput while a sweep is in flight; the pauses do not count.
	res.e2e["runs_per_s"] = float64(members) / busy
	res.setLatencies(lat, hits)

	// Output check: the first sweep's cells must be byte-identical to the
	// same grid on a standalone pool, with no node lost along the way.
	oracle, oracleErr := standaloneSweep(ctx, runs[0].req)
	if oracleErr != nil {
		res.checkf("standalone oracle: %v", oracleErr)
	} else if !bytes.Equal(oracle.cells, runs[0].cells) {
		res.checkf("fleet cells differ from the standalone pool's")
	}
	met, err := c.cli.Metrics(ctx)
	if err != nil {
		res.checkf("coordinator metrics: %v", err)
	} else if met["pdpad_fleet_node_deaths_total"] != 0 || met["pdpad_fleet_requeues_total"] != 0 {
		res.checkf("node deaths %v, requeues %v; want 0", met["pdpad_fleet_node_deaths_total"], met["pdpad_fleet_requeues_total"])
	}

	if e.trace == nil {
		return res, nil
	}
	m := res.layer
	m["error_frac"] = float64(res.failed) / float64(res.attempted)
	m["fleet.post_sweeps_ms"] = median(c.coordStats.durations("post_sweeps"))
	gets := c.coordStats.durations("get_sweep")
	m["fleet.get_sweep_ms.p50"], m["fleet.get_sweep_ms.p95"] = median(gets), percentile(gets, 95)
	nodePost, nodeGet := c.nodeStats.durations("post_runs"), c.nodeStats.durations("get_run")
	m["fleet.node_post_runs"] = float64(len(nodePost))
	m["fleet.node_post_run_ms.p50"], m["fleet.node_post_run_ms.p95"] = median(nodePost), percentile(nodePost, 95)
	m["fleet.node_get_runs"] = float64(len(nodeGet))
	m["fleet.node_get_run_ms.p50"] = median(nodeGet)
	if polls := len(gets) - len(hits); polls > 0 {
		m["fleet.node_gets_per_status"] = float64(len(nodeGet)) / float64(polls)
	}
	c.nodeStats.mu.Lock()
	var respBytes int64
	for _, b := range c.nodeStats.bytes {
		respBytes += b
	}
	c.nodeStats.mu.Unlock()
	m["fleet.node_resp_mb"] = float64(respBytes) / (1 << 20)
	maxN, sumN := 0.0, 0.0
	for i, n := range c.nodes {
		v := float64(n.pool.Stats().Submitted - before[i])
		maxN, sumN = max(maxN, v), sumN+v
	}
	if sumN > 0 {
		m["fleet.placement_skew"] = maxN / (sumN / float64(len(c.nodes)))
	}
	c.hbMu.Lock()
	m["fleet.heartbeats"] = float64(c.agentStats.count("heartbeat"))
	m["fleet.heartbeat_gap_ms.max"] = maxOf(c.beatGaps)
	c.hbMu.Unlock()
	m["fleet.node_deaths"] = met["pdpad_fleet_node_deaths_total"]
	m["fleet.requeues"] = met["pdpad_fleet_requeues_total"]
	if oracleErr == nil {
		m["fleet.hop_overhead_s"] = runs[0].end.Sub(runs[0].start).Seconds() - oracle.end.Sub(oracle.start).Seconds()
	}

	// Share of POST /v1/sweeps spent inside its serial node POSTs, and the
	// accounting check along a sweep's blocking path.
	if total := sum(c.coordStats.durations("post_sweeps")); total > 0 {
		m["fleet.submit_serial_frac"] = sum(nodePost) / total
	}
	tags := map[string]bool{}
	for i := range runs {
		tags["sweep-"+strconv.Itoa(i+1)] = true
	}
	m["accounting.gap_frac"] = accountingGap(e.trace, lat, tags, []string{
		"client.submit_sweep", "transport.post_sweeps", "coord.post_sweeps", "node.post_runs", "node_server.post_runs",
		"nodes.execute", "client.detect",
	}, "sweep")

	var specs []runqueue.Spec
	for _, s := range runs[0].req.Seeds {
		specs = append(specs, gridMembers(s)...)
	}
	if err := simLayers(ctx, specs, m); err != nil {
		return nil, err
	}
	return res, nil
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// standaloneSweep runs a grid on one plain pool with default settings —
// the reference the fleet's cells must reproduce byte for byte.
func standaloneSweep(ctx context.Context, req client.SubmitSweepRequest) (sweepRun, error) {
	pool := runqueue.New(runqueue.Config{})
	srv, base, err := serveOn(server.New(pool))
	if err != nil {
		return sweepRun{}, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		pool.Drain(dctx)
		srv.Shutdown(dctx)
		hc.CloseIdleConnections()
	}()
	s := runSweepOn(ctx, client.New(base, client.WithHTTPClient(hc)), nil, req, "oracle")
	if s.failed {
		return s, errors.New("standalone sweep failed")
	}
	return s, nil
}

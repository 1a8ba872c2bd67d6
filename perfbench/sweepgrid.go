package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pdpasim"
	"pdpasim/internal/runqueue"
)

// The paper grid every workload draws its runs from: 4 policies × w1–w4 ×
// three loads, on the paper's 60-CPU machine with 300 s windows.
var (
	gridPolicies = []pdpasim.Policy{pdpasim.IRIX, pdpasim.Equipartition, pdpasim.EqualEfficiency, pdpasim.PDPA}
	gridMixes    = []string{"w1", "w2", "w3", "w4"}
	gridLoads    = []float64{0.6, 0.8, 1.0}
)

const (
	gridNCPU    = 60
	gridWindowS = 300
	// sweepCheckRuns is how many sweep runs the output check re-runs.
	sweepCheckRuns = 8
)

func gridSpec(seeds ...int64) pdpasim.SweepSpec {
	return pdpasim.SweepSpec{
		Policies: gridPolicies, Mixes: gridMixes, Loads: gridLoads, Seeds: seeds,
		NCPU: gridNCPU, Window: gridWindowS * time.Second,
	}
}

// sweepCall is the grid one timed call runs; the package test shrinks it
// to one mix and load.
func sweepCall(seed int64, scale int) pdpasim.SweepSpec {
	spec := gridSpec(seed)
	if scale > 1 {
		spec.Mixes, spec.Loads = spec.Mixes[:1], spec.Loads[:1]
	}
	return spec
}

// gridMembers lists one grid slice's runs as wire specs, in sweep order.
func gridMembers(seed int64) []runqueue.Spec {
	var out []runqueue.Spec
	for _, mix := range gridMixes {
		for _, load := range gridLoads {
			for _, pol := range gridPolicies {
				out = append(out, runqueue.Spec{
					Workload: runqueue.WorkloadSpec{Mix: mix, Load: load, NCPU: gridNCPU, WindowS: gridWindowS, Seed: seed},
					Options:  runqueue.RunOptions{Policy: string(pol), Seed: seed},
				})
			}
		}
	}
	return out
}

// runSweepGrid is the researcher's path: back-to-back pdpasim.Sweep calls,
// each over the whole paper grid for one seed drawn from the run's seed,
// with the default worker count. Each call is a miss; exporting its result
// as JSON is the matching hit.
func runSweepGrid(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	nextSeed := func() int64 { return 1 + rng.Int63n(1<<30) }

	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		// Set-up is one warm-up sweep: it loads code, grows the heap and
		// fills the sweep pool's per-worker systems before timing starts.
		if _, err := pdpasim.Sweep(ctx, gridSpec(nextSeed())); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}

	type call struct {
		seed        int64
		start, end  time.Time
		exported    time.Time
		completions []time.Time
		out         *pdpasim.SweepResult
	}
	var calls []*call
	window := time.Duration(e.seconds * float64(time.Second))
	t0 := time.Now()
	for time.Since(t0) < window {
		c := &call{seed: nextSeed()}
		spec := sweepCall(c.seed, e.scale)
		var mu sync.Mutex
		if e.trace != nil {
			spec.Observer = pdpasim.ObserverFunc(func(pdpasim.TraceEvent) {
				mu.Lock()
				c.completions = append(c.completions, time.Now())
				mu.Unlock()
			})
		}
		res.attempted += 2 // the sweep and its export
		c.start = time.Now()
		out, err := pdpasim.Sweep(ctx, spec)
		c.end = time.Now()
		if err != nil {
			res.failed += 2
			fmt.Printf("sweep seed %d: %v\n", c.seed, err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		c.out = out
		// The hit: exporting the finished sweep, as pdpasim -json does.
		if err := out.WriteJSON(io.Discard); err != nil {
			res.failed++
		}
		c.exported = time.Now()
		calls = append(calls, c)
		e.trace.add("pdpasim.sweep", 0, fmt.Sprint("sweep-", len(calls)), c.start, c.end)
	}
	if len(calls) == 0 {
		return nil, fmt.Errorf("no sweep completed")
	}
	var miss, hit []float64
	runs := 0
	for _, c := range calls {
		miss = append(miss, msSince(c.start, c.end))
		hit = append(hit, msSince(c.end, c.exported))
		runs += len(c.out.Runs)
	}
	res.e2e["runs_per_s"] = float64(runs) / calls[len(calls)-1].exported.Sub(t0).Seconds()
	res.setLatencies(miss, hit)

	// Output check: re-run a sample of the sweeps' runs on a fresh facade
	// call and compare the exported JSON byte for byte.
	for i := 0; i < sweepCheckRuns; i++ {
		c := calls[i%len(calls)]
		k := (i * 7) % len(c.out.Runs)
		spec := gridMembers(c.seed)[k] // Runs are in grid order
		ws, opts := spec.Facade()
		fresh, err := pdpasim.RunContext(ctx, ws, opts)
		if err != nil {
			res.checkf("re-run %s: %v", spec.Key(), err)
			continue
		}
		a, _ := json.Marshal(c.out.Runs[k])
		b, _ := json.Marshal(fresh.Export())
		if string(a) != string(b) {
			res.checkf("sweep run %s differs from a fresh RunContext", spec.Key())
		}
	}

	if e.trace != nil {
		m := res.layer
		m["error_frac"] = float64(res.failed) / float64(res.attempted)
		members := gridMembers(calls[0].seed)
		if e.scale > 1 {
			members = members[:len(gridPolicies)]
		}
		if err := simLayers(ctx, members, m); err != nil {
			return nil, err
		}
		// Parallel efficiency: the first call's grid again on one worker,
		// against the pool's time for it on every core.
		spec := sweepCall(calls[0].seed, e.scale)
		spec.Workers = 1
		start := time.Now()
		if _, err := pdpasim.Sweep(ctx, spec); err != nil {
			return nil, err
		}
		workers := float64(runtime.GOMAXPROCS(0))
		m["sweep.parallel_eff"] = msSince(start, time.Now()) / (workers * msSince(calls[0].start, calls[0].end))
		var tail []float64
		for _, c := range calls {
			if k := len(c.completions) - int(workers); k >= 0 {
				tail = append(tail, msSince(c.completions[k], c.end))
			}
		}
		m["sweep.tail_ms"] = median(tail)
	}
	return res, nil
}

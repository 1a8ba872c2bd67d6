package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pdpasim/internal/runqueue"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// probeLimit caps how many of a workload's specs the sim-layer replay runs.
const probeLimit = 48

// simLayers replays up to probeLimit of the workload's run specs, outside
// the timed window, through workload.Generate and one reused system.System,
// and sets the workload.* and system.* metrics.
func simLayers(ctx context.Context, specs []runqueue.Spec, m map[string]float64) error {
	if len(specs) > probeLimit {
		specs = specs[:probeLimit]
	}
	sys := system.NewSystem()
	var genMs []float64
	runMs := map[string][]float64{}
	var events, runNs, mallocs uint64
	var before, after runtime.MemStats
	for _, spec := range specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		mix, err := workload.MixByName(spec.Workload.Mix)
		if err != nil {
			return err
		}
		gen := workload.GenConfig{Mix: mix, Load: orDefault(spec.Workload.Load, 1), NCPU: orDefaultInt(spec.Workload.NCPU, 60),
			Window: sim.FromSeconds(orDefault(spec.Workload.WindowS, 300)), Seed: spec.Workload.Seed}
		start := time.Now()
		w, err := workload.Generate(gen)
		if err != nil {
			return err
		}
		genMs = append(genMs, msSince(start, time.Now()))

		runtime.ReadMemStats(&before)
		start = time.Now()
		if _, err := sys.RunContext(ctx, system.Config{Workload: w, Policy: system.PolicyKind(spec.Options.Policy), Seed: spec.Options.Seed}); err != nil {
			return fmt.Errorf("replay %s: %w", spec.Key(), err)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		runMs[spec.Options.Policy] = append(runMs[spec.Options.Policy], float64(d)/1e6)
		events += sys.EventsExecuted()
		runNs += uint64(d)
		mallocs += after.Mallocs - before.Mallocs
	}
	m["workload.generate_ms"] = median(genMs)
	for _, pol := range gridPolicies {
		m["system.run_ms."+string(pol)] = median(runMs[string(pol)])
	}
	if n := float64(len(specs)); n > 0 && events > 0 {
		m["system.events_per_run"] = float64(events) / n
		m["system.ns_per_event"] = float64(runNs) / float64(events)
		m["system.allocs_per_run"] = float64(mallocs) / n
	}
	return nil
}

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func orDefaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

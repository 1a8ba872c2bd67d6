package policy_test

import (
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/policy"
	"pdpasim/internal/sched"
)

// planView returns the fixed view the Plan benchmarks replan against: eight
// jobs of the four application classes on 60 CPUs, each started under pol
// and measured once at 8 processors (apsi at its request of 2).
func planView(pol sched.Policy) *sched.View {
	v := &sched.View{NCPU: 60}
	classes := []app.Class{app.Swim, app.BT, app.Hydro2D, app.Apsi}
	for i := 0; i < 8; i++ {
		prof := app.ProfileFor(classes[i%len(classes)])
		procs := min(8, prof.Request)
		s := prof.Speedup.Speedup(procs)
		j := &sched.JobView{ID: sched.JobID(3 * i), Slot: 7 - i, Request: prof.Request, Gran: 1, Allocated: procs}
		j.Reports = []sched.Report{{Procs: procs, Speedup: s, Efficiency: s / float64(procs)}}
		v.Jobs = append(v.Jobs, j)
		pol.JobStarted(0, j)
		pol.ReportPerformance(0, j, j.Reports[0])
	}
	return v
}

// BenchmarkPlan measures one policy decision at the policy seam: the cost
// the resource manager pays on every replan, without the machine or the
// manager's bookkeeping.
func BenchmarkPlan(b *testing.B) {
	for _, c := range []struct {
		name string
		pol  sched.Policy
	}{
		{"pdpa", core.MustNew(core.DefaultParams())},
		{"equip", policy.NewEquipartition()},
		{"equal_eff", policy.NewEqualEfficiency()},
		{"dynamic", policy.NewDynamic()},
	} {
		b.Run(c.name, func(b *testing.B) {
			v := planView(c.pol)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, j := range v.Jobs {
					j.Want = sched.Keep
				}
				c.pol.Plan(v)
			}
		})
	}
}

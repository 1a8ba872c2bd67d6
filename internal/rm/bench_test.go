package rm

import (
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/policy"
	"pdpasim/internal/sched"
)

// BenchmarkReplan measures one SpaceManager replan of eight running jobs on
// 60 CPUs in steady state: building the policy's view, Plan, and the
// shrink, grow, backfill and run-to-completion passes.
func BenchmarkReplan(b *testing.B) {
	for _, c := range []struct {
		name string
		pol  func() sched.Policy
	}{
		{"pdpa", func() sched.Policy { return core.MustNew(core.DefaultParams()) }},
		{"equip", func() sched.Policy { return policy.NewEquipartition() }},
		{"equal_eff", func() sched.Policy { return policy.NewEqualEfficiency() }},
		{"dynamic", func() sched.Policy { return policy.NewDynamic() }},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := newEnv(60)
			mgr := NewSpaceManager(e.eng, e.mach, c.pol(), e.rec)
			classes := []app.Class{app.Swim, app.BT, app.Hydro2D, app.Apsi}
			for i := 0; i < 8; i++ {
				class := classes[i%len(classes)]
				startJob(e, mgr, sched.JobID(3*i), class, app.ProfileFor(class).Request, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr.replan()
			}
		})
	}
}

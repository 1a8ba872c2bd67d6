package policy

import (
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// Dynamic implements the processor allocation policy of McCann, Vaswani, and
// Zahorjan (TOCS 1993), one of the policies the paper's related work
// discusses: processors move eagerly to wherever they can be used, driven by
// each application's reported ability to use them, with no efficiency
// target. "Their approach considers the idleness ... and results in a large
// number of reallocations" (Section 2).
//
// This implementation estimates each application's marginal speedup from its
// recent measurements (the same fitted model Equal_efficiency uses) and
// water-fills processors by marginal speedup: every processor goes to the
// application whose total speedup it raises most. It replans on every
// report, arrival, and completion — maximizing instantaneous utilization at
// the price of constant reallocation.
type Dynamic struct {
	// Window is how many recent reports the curve fit uses.
	Window int
	// alpha is the fitted serialization parameter per job slot.
	alpha []float64
}

// NewDynamic returns a Dynamic policy.
func NewDynamic() *Dynamic { return &Dynamic{Window: 3} }

// Reset reinitializes the policy to the state NewDynamic would produce,
// keeping the alpha slice's storage.
func (d *Dynamic) Reset() {
	d.Window = 3
	clear(d.alpha)
}

// Name implements sched.Policy.
func (d *Dynamic) Name() string { return "Dynamic" }

// JobStarted implements sched.Policy.
func (d *Dynamic) JobStarted(now sim.Time, job *sched.JobView) {
	d.alpha = sched.AtSlot(d.alpha, job.Slot)
	d.alpha[job.Slot] = 0
}

// JobFinished implements sched.Policy. The slot's fit is reset when the
// next job starts in it.
func (d *Dynamic) JobFinished(now sim.Time, job *sched.JobView) {}

// ReportPerformance implements sched.Policy.
func (d *Dynamic) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {
	if a, ok := fitAlpha(job.Reports, d.Window); ok {
		d.alpha[job.Slot] = a
	}
}

// fitted returns the modeled speedup of the job in slot at p processors.
func (d *Dynamic) fitted(slot, p int) float64 {
	if p < 1 {
		return 0
	}
	return float64(p) / modelDen(d.alpha[slot], p)
}

// Plan implements sched.Policy: marginal-speedup water-filling. Each job
// gets one processor (run-to-completion); each further processor goes to the
// job with the largest fitted speedup gain, the earliest on a tie.
func (d *Dynamic) Plan(v *sched.View) {
	remaining := v.NCPU
	for _, j := range v.Jobs {
		j.Want = min(remaining, 1)
		remaining -= j.Want
	}
	for ; remaining > 0; remaining-- {
		var best *sched.JobView
		bestGain := 0.0
		for _, j := range v.Jobs {
			if j.Want >= j.Request {
				continue
			}
			if gain := d.fitted(j.Slot, j.Want+1) - d.fitted(j.Slot, j.Want); gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best == nil {
			return
		}
		best.Want++
	}
}

// WantsNewJob implements sched.Policy: Dynamic runs under a fixed
// multiprogramming level enforced by the queuing system.
func (d *Dynamic) WantsNewJob(v *sched.View) bool { return true }

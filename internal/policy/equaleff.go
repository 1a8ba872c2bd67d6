package policy

import (
	"pdpasim/internal/obs"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// EqualEfficiency implements the Equal_efficiency policy of Nguyen et al.:
// it extrapolates each application's efficiency curve from its runtime
// measurements and gives processors, one at a time, to the application whose
// extrapolated efficiency at its next processor is highest — equalizing
// marginal efficiency across the machine.
//
// Faithful to the paper's critique (Section 5.1), the policy reallocates on
// every performance report and extrapolates from a short window of noisy
// samples, so small measurement variations translate into large allocation
// swings, and superlinear applications (whose fitted serialization parameter
// goes negative) can capture wildly different allocations across instances.
type EqualEfficiency struct {
	// Window is how many recent reports the curve fit uses.
	Window int
	// alpha is the fitted serialization parameter per job slot (see
	// fitAlpha).
	alpha []float64
	tr    *obs.Trace
}

// SetTrace attaches a decision-trace recorder (nil detaches): every curve
// refit is recorded as an extrapolate event carrying the fitted alpha.
func (e *EqualEfficiency) SetTrace(tr *obs.Trace) { e.tr = tr }

// NewEqualEfficiency returns an Equal_efficiency policy extrapolating from
// the most recent report — the per-measurement sensitivity the paper
// criticizes ('too sensitive to small changes in the efficiency
// measurements'). Raise Window to damp it.
func NewEqualEfficiency() *EqualEfficiency { return &EqualEfficiency{Window: 1} }

// Reset reinitializes the policy to the state NewEqualEfficiency would
// produce (Window 1, no fits, trace detached), keeping the alpha slice's
// storage.
func (e *EqualEfficiency) Reset() {
	e.Window = 1
	clear(e.alpha)
	e.tr = nil
}

// Name implements sched.Policy.
func (e *EqualEfficiency) Name() string { return "Equal_eff" }

// JobStarted implements sched.Policy. New jobs are assumed to scale
// perfectly until measured — the optimistic extrapolation the original
// policy uses.
func (e *EqualEfficiency) JobStarted(now sim.Time, job *sched.JobView) {
	e.alpha = sched.AtSlot(e.alpha, job.Slot)
	e.alpha[job.Slot] = 0
}

// JobFinished implements sched.Policy. The slot's fit is reset when the
// next job starts in it.
func (e *EqualEfficiency) JobFinished(now sim.Time, job *sched.JobView) {}

// ReportPerformance implements sched.Policy: refit the job's efficiency
// curve from its recent reports.
func (e *EqualEfficiency) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {
	a, ok := fitAlpha(job.Reports, e.Window)
	if !ok {
		return
	}
	e.alpha[job.Slot] = a
	if e.tr != nil {
		e.tr.Record(obs.Event{
			At: now, Kind: obs.KindExtrapolate, Job: int32(job.ID),
			Procs: int32(r.Procs), Eff: r.Efficiency, Speedup: a,
		})
	}
}

// fitAlpha fits the serialization parameter of the model
// S(p) = p / (1 + alpha·(p-1)), i.e. eff(p) = 1 / (1 + alpha·(p-1)), to the
// last window reports: the mean of the model inverted at every usable
// sample. alpha 0 = perfect scaling; negative = superlinear. ok is false
// when no report was taken above one processor with a positive speedup.
func fitAlpha(reports []sched.Report, window int) (alpha float64, ok bool) {
	if len(reports) > window {
		reports = reports[len(reports)-window:]
	}
	sum, n := 0.0, 0
	for _, rep := range reports {
		if rep.Procs <= 1 || rep.Speedup <= 0 {
			continue
		}
		// Invert the model at the sample: alpha = (p/S - 1) / (p - 1).
		sum += (float64(rep.Procs)/rep.Speedup - 1) / float64(rep.Procs-1)
		n++
	}
	return sum / float64(n), n > 0
}

// modelDen returns the model's denominator 1 + alpha·(p-1), floored to keep
// superlinear (negative-alpha) fits from diverging.
func modelDen(alpha float64, p int) float64 {
	return max(1+alpha*float64(p-1), 0.05)
}

// Plan implements sched.Policy: water-filling by extrapolated efficiency.
// Every job gets one processor (run-to-completion); each remaining processor
// goes to the job, below its request, with the highest extrapolated
// efficiency 1/modelDen at its next processor — the earliest such job on a
// tie, since v.Jobs is sorted by ID.
func (e *EqualEfficiency) Plan(v *sched.View) {
	remaining := v.NCPU
	for _, j := range v.Jobs {
		j.Want = min(remaining, 1)
		remaining -= j.Want
	}
	for ; remaining > 0; remaining-- {
		var best *sched.JobView
		bestEff := -1.0
		for _, j := range v.Jobs {
			if j.Want >= j.Request {
				continue
			}
			if eff := 1 / modelDen(e.alpha[j.Slot], j.Want+1); eff > bestEff {
				best, bestEff = j, eff
			}
		}
		if best == nil {
			return
		}
		best.Want++
	}
}

// WantsNewJob implements sched.Policy: Equal_efficiency runs under a fixed
// multiprogramming level enforced by the queuing system.
func (e *EqualEfficiency) WantsNewJob(v *sched.View) bool { return true }

// Alpha returns the fitted serialization parameter of a running job —
// exposed for tests and diagnostics.
func (e *EqualEfficiency) Alpha(job *sched.JobView) float64 { return e.alpha[job.Slot] }

// Package policy implements the baseline space-sharing processor allocation
// policies the paper compares PDPA against: Equipartition (McCann, Vaswani,
// Zahorjan) and Equal_efficiency (Nguyen, Zahorjan, Vaswani). The native
// IRIX scheduler model — a time-sharing manager, not a space-sharing
// policy — lives in internal/rm.
package policy

import (
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// Equipartition divides the machine equally among running jobs, capping each
// job at its request and redistributing the leftovers. Reallocations happen
// only at job arrival and completion (Section 3.3), which keeps the
// schedule stable but ignores how well applications use their processors.
type Equipartition struct {
	// unsat is Plan's scratch list of jobs still below their request.
	unsat []*sched.JobView
}

// NewEquipartition returns an Equipartition policy.
func NewEquipartition() *Equipartition { return &Equipartition{} }

// Name implements sched.Policy.
func (e *Equipartition) Name() string { return "Equip" }

// JobStarted implements sched.Policy.
func (e *Equipartition) JobStarted(now sim.Time, job *sched.JobView) {}

// JobFinished implements sched.Policy.
func (e *Equipartition) JobFinished(now sim.Time, job *sched.JobView) {}

// ReportPerformance implements sched.Policy. Equipartition ignores
// application performance.
func (e *Equipartition) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {}

// Plan implements sched.Policy: an equal division of the machine among the
// jobs, capping each at its request. It repeatedly gives every unsatisfied
// job an equal share of what remains, with ties broken toward earlier
// arrivals (lower IDs); every job receives at least one processor when
// possible. The division depends only on the job set and the requests, so
// the plan changes only at arrivals and completions although it is
// recomputed on every call.
func (e *Equipartition) Plan(v *sched.View) {
	unsat := e.unsat[:0]
	for _, j := range v.Jobs {
		j.Want = 0
		unsat = append(unsat, j)
	}
	e.unsat = unsat
	remaining := v.NCPU
	for remaining > 0 && len(unsat) > 0 {
		share := remaining / len(unsat)
		if share == 0 {
			// Fewer processors than jobs: one each to the earliest until
			// exhausted.
			for _, j := range unsat[:remaining] {
				j.Want++
			}
			return
		}
		progressed := false
		next := unsat[:0]
		for _, j := range unsat {
			if need := max(j.Request, 1) - j.Want; need <= share {
				// Fully satisfiable within the fair share.
				remaining -= need
				j.Want += need
				progressed = true
			} else {
				next = append(next, j)
			}
		}
		unsat = next
		if !progressed {
			// Everyone wants more than the share: split evenly, leftovers
			// to the earliest jobs.
			extra := remaining % len(unsat)
			for i, j := range unsat {
				j.Want += share
				if i < extra {
					j.Want++
				}
			}
			return
		}
	}
}

// WantsNewJob implements sched.Policy: Equipartition runs under a fixed
// multiprogramming level enforced by the queuing system.
func (e *Equipartition) WantsNewJob(v *sched.View) bool { return true }

// Package sched defines the vocabulary shared between the resource manager
// and the space-sharing processor allocation policies: the per-job view a
// policy sees, the performance reports flowing up from the runtime, and the
// Policy interface itself.
//
// The interface is built for a hot path the managers run on every
// performance report: Plan writes its decision into the views in place
// (JobView.Want) instead of returning a map, and each view carries a dense
// Slot so a policy's per-job state lives in plain slices.
//
// Policies never see an application's true speedup curve — only the
// measurements the SelfAnalyzer reports — mirroring the paper's premise that
// a priori information is unavailable or untrustworthy.
package sched

import "pdpasim/internal/sim"

// JobID identifies one running job within a simulation.
type JobID int

// Report is one performance observation of a job, produced by the
// SelfAnalyzer and forwarded by the runtime.
type Report struct {
	// At is when the report was delivered.
	At sim.Time
	// Procs is the allocation the measurement was taken at.
	Procs int
	// Speedup is the measured speedup versus one processor.
	Speedup float64
	// Efficiency is Speedup/Procs.
	Efficiency float64
	// IterTime is the measured iteration wall time.
	IterTime sim.Time
}

// Keep is the Want value that leaves a job's current allocation unchanged.
const Keep = -1

// JobView is the scheduler-visible state of one running job.
type JobView struct {
	ID JobID
	// Slot is a dense index, below the peak number of jobs ever running at
	// once, that the resource manager assigns at start and recycles after
	// JobFinished. Policies keep per-job state in slices indexed by it (a
	// policy instance drives one manager, so slots never clash).
	Slot    int
	Name    string
	Request int
	// Gran is the job's allocation granularity: 1 for malleable OpenMP
	// jobs, Request for rigid MPI jobs, an intermediate process count for
	// MPI+OpenMP hybrids. The resource manager rounds grants to multiples
	// of Gran; policies may plan any number.
	Gran int
	// Allocated is the job's current processor allocation.
	Allocated int
	// Arrived is when the job started running (entered RM control).
	Arrived sim.Time
	// Reports is the job's performance history, oldest first. Policies may
	// read but must not mutate it.
	Reports []Report
	// Want is Plan's output: the allocation the policy wants for the job.
	// The resource manager sets it to Keep before each Plan.
	Want int
}

// LastReport returns the most recent report, or nil.
func (j *JobView) LastReport() *Report {
	if len(j.Reports) == 0 {
		return nil
	}
	return &j.Reports[len(j.Reports)-1]
}

// HasPerformance reports whether the job has delivered any measurement yet.
func (j *JobView) HasPerformance() bool { return len(j.Reports) > 0 }

// View is the system snapshot a policy plans against.
type View struct {
	Now sim.Time
	// NCPU is the machine size.
	NCPU int
	// Jobs are the running jobs, sorted by ascending ID (arrival order).
	Jobs []*JobView
	// Queued is the number of jobs waiting in the queuing system.
	Queued int
}

// FreeCPUs returns NCPU minus the sum of current allocations (never
// negative).
func (v *View) FreeCPUs() int {
	used := 0
	for _, j := range v.Jobs {
		used += j.Allocated
	}
	if used >= v.NCPU {
		return 0
	}
	return v.NCPU - used
}

// Policy is a dynamic space-sharing processor allocation policy. The
// resource manager invokes the event hooks as things happen and then calls
// Plan, which writes the desired allocation of every running job into its
// JobView.Want; the manager applies the plan to the machine (shrinks before
// grows) and enforces feasibility. Views are only valid during the call:
// policies key what they remember about a job by JobView.Slot, not by
// pointer.
//
// Implementations: PDPA (internal/core), Equipartition and Equal_efficiency
// (internal/policy). The native-IRIX model is not a Policy — it is a
// time-sharing resource manager of its own (internal/rm).
type Policy interface {
	// Name identifies the policy in results tables.
	Name() string
	// JobStarted notifies that job entered the system. Its Slot may have
	// belonged to a finished job: the policy resets what it keeps there.
	JobStarted(now sim.Time, job *JobView)
	// JobFinished notifies that the job left the system; its slot may be
	// handed to the next job started.
	JobFinished(now sim.Time, job *JobView)
	// ReportPerformance delivers a new measurement for job. The JobView
	// already includes it as the last element of Reports.
	ReportPerformance(now sim.Time, job *JobView, r Report)
	// Plan sets Want on every job of v it has a wish for; jobs left at Keep
	// keep their current allocation. The manager clamps the plan to machine
	// capacity.
	Plan(v *View)
	// WantsNewJob reports whether the queuing system may launch another job
	// now — the coordination between processor scheduling and job
	// scheduling that Section 4.3 describes. Fixed-multiprogramming
	// policies return true unconditionally and rely on the queuing system's
	// level.
	WantsNewJob(v *View) bool
}

// AtSlot returns s, lengthened with zero values if needed so that s[slot]
// exists: the growth step of a policy's slot-indexed per-job state.
func AtSlot[T any](s []T, slot int) []T {
	if slot < len(s) {
		return s
	}
	return append(s, make([]T, slot+1-len(s))...)
}

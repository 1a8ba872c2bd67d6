package rm

import (
	"slices"

	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/obs"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// SpaceManager enforces a dynamic space-sharing policy: each running job
// owns a disjoint CPU partition, resized whenever the policy replans (job
// arrival, job completion, or a performance report — the activations
// Section 4.1 lists).
type SpaceManager struct {
	eng  *sim.Engine
	mach *machine.Machine
	pol  sched.Policy
	rec  *trace.Recorder

	// jobs is the running set sorted by ascending ID, the order a View
	// promises, so it is handed to the policy as is. rts holds each running
	// job's runtime, indexed by its slot.
	jobs             []*sched.JobView
	rts              []*nthlib.Runtime
	admissionChanged func()
	queued           func() int
	replanning       bool
	replanPending    bool
	tr               *obs.Trace

	// The views handed to the policy live here rather than on the stack: a
	// pointer to a local escapes to the heap through the interface call. Two,
	// not one: an admission check (CanAdmit) can fire while replanOnce is
	// still iterating its plan, and must not clobber it. planView.Jobs is a
	// copy of jobs, so a job started by such a nested admission does not
	// shift the pass in progress. Policies never retain a view past the call.
	planView  sched.View
	admitView sched.View

	// Free lists recycling per-job state across jobs and runs. Safe because
	// nothing retains a job's view (or its Reports) past JobFinished: policies
	// see views only during calls and the run result is assembled from the
	// job tracks. A recycled view keeps its Slot, so slots stay dense: there
	// are as many as views ever allocated. reportsPool keeps grown Reports
	// backing arrays — the dominant steady-state allocation site of a PDPA
	// run.
	viewFree    []*sched.JobView
	reportsPool [][]sched.Report
}

// SetQueuedFunc wires the queuing system's queue-depth accessor into the
// views handed to the policy (load-adaptive policies read it).
func (m *SpaceManager) SetQueuedFunc(fn func() int) { m.queued = fn }

// SetTrace attaches a decision-trace recorder (nil detaches): performance
// reports and machine reallocations are recorded.
func (m *SpaceManager) SetTrace(tr *obs.Trace) { m.tr = tr }

// NewSpaceManager returns a manager driving pol over mach. rec may be nil.
func NewSpaceManager(eng *sim.Engine, mach *machine.Machine, pol sched.Policy, rec *trace.Recorder) *SpaceManager {
	return &SpaceManager{eng: eng, mach: mach, pol: pol, rec: rec}
}

// Name implements Manager.
func (m *SpaceManager) Name() string { return m.pol.Name() }

// Policy returns the policy being driven.
func (m *SpaceManager) Policy() sched.Policy { return m.pol }

// Running implements Manager.
func (m *SpaceManager) Running() int { return len(m.jobs) }

// SetAdmissionChanged implements Manager.
func (m *SpaceManager) SetAdmissionChanged(fn func()) { m.admissionChanged = fn }

// find returns the index of id in the running set, or -1.
func (m *SpaceManager) find(id sched.JobID) int {
	i, ok := slices.BinarySearchFunc(m.jobs, id, func(j *sched.JobView, id sched.JobID) int { return int(j.ID - id) })
	if !ok {
		return -1
	}
	return i
}

// StartJob implements Manager.
func (m *SpaceManager) StartJob(id sched.JobID, rt *nthlib.Runtime) {
	var view *sched.JobView
	if n := len(m.viewFree); n > 0 {
		view = m.viewFree[n-1]
		m.viewFree = m.viewFree[:n-1]
	} else {
		view = &sched.JobView{Slot: len(m.rts)}
		m.rts = append(m.rts, nil)
	}
	var reports []sched.Report
	if n := len(m.reportsPool); n > 0 {
		reports = m.reportsPool[n-1]
		m.reportsPool = m.reportsPool[:n-1]
	}
	*view = sched.JobView{
		ID:      id,
		Slot:    view.Slot,
		Name:    rt.Profile().Name,
		Request: rt.Request(),
		Gran:    rt.Granularity(),
		Arrived: m.eng.Now(),
		Reports: reports,
	}
	m.rts[view.Slot] = rt
	// Insert into the ID-sorted running set. IDs mostly arrive in increasing
	// order (a queue order like SJF need not), so the common case is a plain
	// append.
	m.jobs = append(m.jobs, view)
	for i := len(m.jobs) - 1; i > 0 && m.jobs[i-1].ID > id; i-- {
		m.jobs[i-1], m.jobs[i] = m.jobs[i], m.jobs[i-1]
	}
	m.pol.JobStarted(m.eng.Now(), view)
	m.replan()
}

// recycleJob returns a finished job's view and Reports backing array to the
// free lists.
func (m *SpaceManager) recycleJob(view *sched.JobView) {
	if r := view.Reports; cap(r) > 0 {
		m.reportsPool = append(m.reportsPool, r[:0])
	}
	m.rts[view.Slot] = nil
	*view = sched.JobView{Slot: view.Slot}
	m.viewFree = append(m.viewFree, view)
}

// ReportPerformance implements Manager.
func (m *SpaceManager) ReportPerformance(id sched.JobID, meas selfanalyzer.Measurement) {
	i := m.find(id)
	if i < 0 {
		return
	}
	view := m.jobs[i]
	r := sched.Report{
		At:         m.eng.Now(),
		Procs:      meas.Procs,
		Speedup:    meas.Speedup,
		Efficiency: meas.Efficiency,
		IterTime:   meas.IterTime,
	}
	view.Reports = append(view.Reports, r)
	if m.tr != nil {
		m.tr.Record(obs.Event{
			At: r.At, Kind: obs.KindReport, Job: int32(id),
			Procs: int32(r.Procs), Eff: r.Efficiency, Speedup: r.Speedup,
		})
	}
	m.pol.ReportPerformance(m.eng.Now(), view, r)
	m.replan()
}

// JobFinished implements Manager.
func (m *SpaceManager) JobFinished(id sched.JobID) {
	i := m.find(id)
	if i < 0 {
		return
	}
	view := m.jobs[i]
	m.jobs = slices.Delete(m.jobs, i, i+1)
	m.mach.Release(m.eng.Now(), int(id))
	m.pol.JobFinished(m.eng.Now(), view)
	m.recycleJob(view)
	m.replan()
}

// Reset returns the manager to the state NewSpaceManager(eng, mach, pol, rec)
// would produce while keeping the free lists and scratch buffers. The engine,
// machine, and policy stay attached (callers reset those separately); any
// queued-func, admission hook, and trace are detached.
func (m *SpaceManager) Reset(rec *trace.Recorder) {
	for _, view := range m.jobs {
		m.recycleJob(view)
	}
	m.jobs = m.jobs[:0]
	m.rec = rec
	m.admissionChanged = nil
	m.queued = nil
	m.replanning = false
	m.replanPending = false
	m.tr = nil
}

// CanAdmit implements Manager.
func (m *SpaceManager) CanAdmit() bool {
	m.fillView(&m.admitView)
	m.admitView.Jobs = m.jobs
	return m.pol.WantsNewJob(&m.admitView)
}

// fillView sets the machine-wide fields of a view handed to the policy.
func (m *SpaceManager) fillView(v *sched.View) {
	v.Now = m.eng.Now()
	v.NCPU = m.mach.NCPU()
	v.Queued = 0
	if m.queued != nil {
		v.Queued = m.queued()
	}
}

// replan asks the policy for the desired allocation and applies it to the
// machine: shrinks first (freeing processors), then grows (clamped by what
// is free), and finally the run-to-completion guarantee — every running job
// keeps at least one processor, preempted from the largest partition if the
// machine is full.
func (m *SpaceManager) replan() {
	if m.replanning {
		// A policy callback triggered a nested replan (e.g. admission
		// started a job while applying allocations); fold it into one more
		// pass instead of recursing.
		m.replanPending = true
		return
	}
	m.replanning = true
	for {
		m.replanPending = false
		m.replanOnce()
		if !m.replanPending {
			break
		}
	}
	m.replanning = false
	if m.admissionChanged != nil {
		m.admissionChanged()
	}
}

func (m *SpaceManager) replanOnce() {
	if len(m.jobs) == 0 {
		return
	}
	now := m.eng.Now()
	v := &m.planView
	m.fillView(v)
	v.Jobs = append(v.Jobs[:0], m.jobs...)
	for _, j := range v.Jobs {
		j.Want = sched.Keep
	}
	m.pol.Plan(v)

	// Shrinks release processors before any growth claims them.
	for _, j := range v.Jobs {
		if j.Want < 0 {
			continue
		}
		if want := m.roundToGranularity(j, j.Want); want < j.Allocated {
			m.apply(now, j, want)
		}
	}
	for _, j := range v.Jobs {
		if j.Want < 0 {
			continue
		}
		if want := m.roundToGranularity(j, j.Want); want > j.Allocated {
			m.applyGrow(now, j, want)
		}
	}

	// Backfill: a granular (MPI) job that could not start because its fair
	// share is less than one whole multiple of its process count takes what
	// actually fits from the free processors — otherwise rigid jobs starve
	// forever on a machine whose policy plans in smaller units. (A policy
	// that plans below a rigid job's request can never run it; the paper's
	// Section 4.3 calls this the fragmentation cost of rigidity.)
	for _, j := range v.Jobs {
		g := j.Gran
		if g <= 1 || j.Allocated >= g {
			continue
		}
		fit := min(m.mach.FreeCPUs()/g*g, j.Request)
		if fit >= g {
			m.apply(now, j, fit)
		}
	}

	// Run-to-completion: a malleable job starved to zero takes one
	// processor from the largest partition. Granular (MPI) jobs instead
	// wait for a whole multiple of their process count — the fragmentation
	// cost of rigidity (Section 4.3).
	for _, starving := range v.Jobs {
		if starving.Gran > 1 {
			continue
		}
		for starving.Allocated < 1 {
			victim := m.largestPartition(starving.ID)
			if victim == nil || victim.Allocated <= 1 {
				break
			}
			m.apply(now, victim, victim.Allocated-1)
			m.apply(now, starving, 1)
		}
	}
}

// roundToGranularity clamps a planned allocation to what the job can
// actually use: non-negative, capped at the request, and a whole multiple of
// the job's granularity. A running granular job is never shrunk below one
// processor per process.
func (m *SpaceManager) roundToGranularity(j *sched.JobView, want int) int {
	want = min(max(want, 0), j.Request)
	g := j.Gran
	if g <= 1 {
		return want
	}
	want = want / g * g
	if want < g && j.Allocated >= g {
		want = g
	}
	return want
}

// applyGrow grows a partition, all-or-nothing in granularity units: the
// grant is pre-clamped to the free processors so a rigid job never receives
// a fraction of a process.
func (m *SpaceManager) applyGrow(now sim.Time, j *sched.JobView, want int) {
	if g := j.Gran; g > 1 {
		available := j.Allocated + m.mach.FreeCPUs()
		if want > available {
			want = available / g * g
		}
		if want <= j.Allocated {
			return
		}
	}
	m.apply(now, j, want)
}

// largestPartition returns the running job with the most processors, the
// lowest ID on a tie, other than excluding.
func (m *SpaceManager) largestPartition(excluding sched.JobID) *sched.JobView {
	var best *sched.JobView
	for _, j := range m.jobs {
		if j.ID != excluding && (best == nil || j.Allocated > best.Allocated) {
			best = j
		}
	}
	return best
}

func (m *SpaceManager) apply(now sim.Time, j *sched.JobView, want int) {
	granted := m.mach.Resize(now, int(j.ID), want)
	if granted == j.Allocated {
		return
	}
	if m.tr != nil {
		m.tr.Record(obs.Event{
			At: now, Kind: obs.KindRealloc, Job: int32(j.ID),
			From: int32(j.Allocated), To: int32(granted), Want: int32(want),
		})
	}
	j.Allocated = granted
	m.rts[j.Slot].SetAllocation(granted)
	if m.rec != nil {
		m.rec.ObserveAllocation(now, int(j.ID), granted)
	}
}

package rm

import (
	"slices"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
)

// scripted is a policy whose plan is a fixed per-ID wish list (jobs absent
// from want are left at sched.Keep). It records the ID order and slots of
// every view it is handed.
type scripted struct {
	want   map[sched.JobID]int
	views  [][]sched.JobID
	slots  []int
	onPlan func(v *sched.View)
}

func (s *scripted) Name() string                                                     { return "scripted" }
func (s *scripted) JobStarted(now sim.Time, job *sched.JobView)                      {}
func (s *scripted) JobFinished(now sim.Time, job *sched.JobView)                     {}
func (s *scripted) ReportPerformance(now sim.Time, j *sched.JobView, r sched.Report) {}

func (s *scripted) record(v *sched.View) {
	ids := make([]sched.JobID, len(v.Jobs))
	for i, j := range v.Jobs {
		ids[i] = j.ID
		s.slots = append(s.slots, j.Slot)
	}
	s.views = append(s.views, ids)
}

func (s *scripted) Plan(v *sched.View) {
	s.record(v)
	if hook := s.onPlan; hook != nil {
		s.onPlan = nil
		hook(v)
	}
	for _, j := range v.Jobs {
		if w, ok := s.want[j.ID]; ok {
			j.Want = w
		}
	}
}

func (s *scripted) WantsNewJob(v *sched.View) bool {
	s.record(v)
	return true
}

func TestSpaceManagerKeepLeavesJobAlone(t *testing.T) {
	e := newEnv(16)
	pol := &scripted{want: map[sched.JobID]int{0: 6, 1: 4}}
	mgr := NewSpaceManager(e.eng, e.mach, pol, e.rec)
	a := startJob(e, mgr, 0, app.BT, 30, nil)
	b := startJob(e, mgr, 1, app.BT, 30, nil)
	delete(pol.want, 0)
	pol.want[1] = 8
	mgr.ReportPerformance(1, selfanalyzer.Measurement{Procs: 8, Speedup: 1})
	if a.Allocated() != 6 || b.Allocated() != 8 {
		t.Fatalf("allocations %d/%d, want job 0 kept at 6 and job 1 grown to 8", a.Allocated(), b.Allocated())
	}
}

func TestSpaceManagerShrinksBeforeGrows(t *testing.T) {
	e := newEnv(8)
	pol := &scripted{want: map[sched.JobID]int{0: 2, 1: 6}}
	mgr := NewSpaceManager(e.eng, e.mach, pol, e.rec)
	a := startJob(e, mgr, 0, app.BT, 30, nil)
	b := startJob(e, mgr, 1, app.BT, 30, nil)
	// Job 0 (first in ID order) grows into exactly what job 1 releases: a
	// grow applied before the shrink would find no free processor.
	pol.want[0], pol.want[1] = 6, 2
	mgr.ReportPerformance(0, selfanalyzer.Measurement{Procs: 2, Speedup: 1})
	if a.Allocated() != 6 || b.Allocated() != 2 {
		t.Fatalf("allocations %d/%d, want 6/2", a.Allocated(), b.Allocated())
	}
}

func TestSpaceManagerStarvingJobTakesFromLowestIDOnTie(t *testing.T) {
	e := newEnv(4)
	pol := &scripted{want: map[sched.JobID]int{3: 2, 5: 2, 9: 0}}
	mgr := NewSpaceManager(e.eng, e.mach, pol, e.rec)
	a := startJob(e, mgr, 3, app.BT, 30, nil)
	b := startJob(e, mgr, 5, app.BT, 30, nil)
	c := startJob(e, mgr, 9, app.BT, 30, nil)
	if a.Allocated() != 1 || b.Allocated() != 2 || c.Allocated() != 1 {
		t.Fatalf("allocations %d/%d/%d, want the tie between equal partitions broken toward the lowest ID: 1/2/1",
			a.Allocated(), b.Allocated(), c.Allocated())
	}
}

// TestSpaceManagerNestedAdmissionDuringReplan starts a job from inside the
// policy's Plan, as an admission fired mid-replan would, with an ID that
// sorts into the middle of the running set. The pass in progress must apply
// the wishes it was planned with, and a follow-up pass must plan all three.
// A third job started and finished first leaves the running set spare
// capacity, so an insertion in place would be visible to the pass.
func TestSpaceManagerNestedAdmissionDuringReplan(t *testing.T) {
	e := newEnv(30)
	pol := &scripted{want: map[sched.JobID]int{5: 10, 6: 10, 7: 10, 8: 1}}
	mgr := NewSpaceManager(e.eng, e.mach, pol, e.rec)
	a := startJob(e, mgr, 5, app.BT, 30, nil)
	c := startJob(e, mgr, 7, app.BT, 30, nil)
	startJob(e, mgr, 8, app.BT, 30, nil)
	mgr.JobFinished(8)
	var mid *nthlib.Runtime
	pol.onPlan = func(v *sched.View) {
		if !mgr.CanAdmit() {
			t.Fatal("scripted policy refused admission")
		}
		mid = startJob(e, mgr, 6, app.BT, 30, nil)
		if len(v.Jobs) != 2 || v.Jobs[0].ID != 5 || v.Jobs[1].ID != 7 {
			t.Fatalf("nested start changed the view being planned to %v %v", v.Jobs[0].ID, v.Jobs[1].ID)
		}
	}
	mgr.ReportPerformance(5, selfanalyzer.Measurement{Procs: 10, Speedup: 1})
	if a.Allocated() != 10 || mid.Allocated() != 10 || c.Allocated() != 10 {
		t.Fatalf("allocations %d/%d/%d, want 10 each", a.Allocated(), mid.Allocated(), c.Allocated())
	}
	if last := pol.views[len(pol.views)-1]; !slices.Equal(last, []sched.JobID{5, 6, 7}) {
		t.Fatalf("follow-up pass planned %v, want [5 6 7]", last)
	}
}

// TestSpaceManagerViewSortedUnderSJFOrder starts jobs out of ID order, as a
// shortest-job-first queue does, and finishes one: every view the policy
// sees must still be sorted by ID, and a finished job's slot is reused.
func TestSpaceManagerViewSortedUnderSJFOrder(t *testing.T) {
	e := newEnv(60)
	pol := &scripted{want: map[sched.JobID]int{}}
	mgr := NewSpaceManager(e.eng, e.mach, pol, e.rec)
	for _, id := range []sched.JobID{4, 1, 3, 0, 2} {
		startJob(e, mgr, id, app.BT, 30, nil)
		mgr.CanAdmit()
	}
	mgr.JobFinished(3)
	startJob(e, mgr, 9, app.BT, 30, nil)
	for _, ids := range pol.views {
		if !slices.IsSorted(ids) {
			t.Fatalf("policy saw an unsorted view %v", ids)
		}
	}
	if last := pol.views[len(pol.views)-1]; !slices.Equal(last, []sched.JobID{0, 1, 2, 4, 9}) {
		t.Fatalf("last view %v", last)
	}
	if peak := slices.Max(pol.slots); peak != 4 {
		t.Fatalf("highest slot %d, want 4: five jobs at most ran at once", peak)
	}
}

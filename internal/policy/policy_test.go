package policy

import (
	"testing"
	"testing/quick"

	"pdpasim/internal/sched"
)

// views returns jobs with IDs and slots 0, 1, ... and the given requests.
func views(reqs ...int) []*sched.JobView {
	out := make([]*sched.JobView, len(reqs))
	for i, r := range reqs {
		out[i] = &sched.JobView{ID: sched.JobID(i), Slot: i, Request: r}
	}
	return out
}

// plan runs pol.Plan on a view of jobs (sorted by ID) and returns the wanted
// allocations by job ID; jobs left at sched.Keep are absent.
func plan(pol sched.Policy, ncpu int, jobs ...*sched.JobView) map[sched.JobID]int {
	for _, j := range jobs {
		j.Want = sched.Keep
	}
	pol.Plan(&sched.View{NCPU: ncpu, Jobs: jobs})
	out := make(map[sched.JobID]int, len(jobs))
	for _, j := range jobs {
		if j.Want != sched.Keep {
			out[j.ID] = j.Want
		}
	}
	return out
}

// equip is the Equipartition plan of ncpu processors over jobs.
func equip(ncpu int, jobs []*sched.JobView) map[sched.JobID]int {
	return plan(NewEquipartition(), ncpu, jobs...)
}

func TestEquipartitionedEvenSplit(t *testing.T) {
	got := equip(60, views(30, 30, 30, 30))
	for id, n := range got {
		if n != 15 {
			t.Fatalf("job %d got %d, want 15", id, n)
		}
	}
}

func TestEquipartitionedCapsAtRequest(t *testing.T) {
	got := equip(60, views(2, 30, 30))
	if got[0] != 2 {
		t.Fatalf("small job got %d, want its request 2", got[0])
	}
	if got[1] != 29 || got[2] != 29 {
		t.Fatalf("big jobs got %d,%d, want 29 each", got[1], got[2])
	}
}

func TestEquipartitionedLeftoverToEarliest(t *testing.T) {
	got := equip(10, views(30, 30, 30))
	if got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("split = %v", got)
	}
}

func TestEquipartitionedMoreJobsThanCPUs(t *testing.T) {
	got := equip(2, views(5, 5, 5))
	total := got[0] + got[1] + got[2]
	if total != 2 {
		t.Fatalf("allocated %d of 2", total)
	}
	if got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("split = %v, want earliest served first", got)
	}
}

func TestEquipartitionedEmpty(t *testing.T) {
	if got := equip(60, nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestEquipartitionPolicyReallocOnlyOnChange(t *testing.T) {
	e := NewEquipartition()
	jobs := views(30, 30)
	e.JobStarted(0, jobs[0])
	e.JobStarted(0, jobs[1])
	p1 := plan(e, 60, jobs...)
	// A performance report must not change the plan (no realloc).
	e.ReportPerformance(0, jobs[0], sched.Report{Procs: 30, Speedup: 20, Efficiency: 0.66})
	p2 := plan(e, 60, jobs...)
	if len(p2) != 2 || p1[0] != p2[0] || p1[1] != p2[1] {
		t.Fatalf("plan changed without arrival/completion: %v -> %v", p1, p2)
	}
	// Completion changes the plan.
	e.JobFinished(0, jobs[1])
	if p3 := plan(e, 60, jobs[0]); p3[jobs[0].ID] != 30 {
		t.Fatalf("after completion job0 got %d, want 30", p3[jobs[0].ID])
	}
}

func TestEquipartitionName(t *testing.T) {
	if NewEquipartition().Name() != "Equip" {
		t.Fatal("name")
	}
	if !NewEquipartition().WantsNewJob(&sched.View{}) {
		t.Fatal("fixed-MPL policy must always allow admission")
	}
}

// Property: Equipartitioned never over-allocates, never exceeds requests,
// and is fair (allocations differ by at most 1 among jobs with equal,
// unsatisfied requests).
func TestEquipartitionedProperties(t *testing.T) {
	f := func(ncpuRaw uint8, reqsRaw []uint8) bool {
		ncpu := int(ncpuRaw)%100 + 1
		if len(reqsRaw) == 0 {
			return true
		}
		if len(reqsRaw) > 20 {
			reqsRaw = reqsRaw[:20]
		}
		reqs := make([]int, len(reqsRaw))
		for i, r := range reqsRaw {
			reqs[i] = int(r)%40 + 1
		}
		jobs := views(reqs...)
		got := equip(ncpu, jobs)
		total := 0
		for _, j := range jobs {
			n := got[j.ID]
			if n < 0 || n > j.Request {
				return false
			}
			total += n
		}
		if total > ncpu {
			return false
		}
		// Fairness among unsatisfied equals.
		for _, a := range jobs {
			for _, b := range jobs {
				if a.Request == b.Request && got[a.ID] < a.Request && got[b.ID] < b.Request {
					d := got[a.ID] - got[b.ID]
					if d < -1 || d > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualEfficiencyFitsAlpha(t *testing.T) {
	e := NewEqualEfficiency()
	j := &sched.JobView{ID: 1, Request: 30}
	e.JobStarted(0, j)
	// Perfect scaling: alpha 0.
	j.Reports = append(j.Reports, sched.Report{Procs: 10, Speedup: 10})
	e.ReportPerformance(0, j, j.Reports[len(j.Reports)-1])
	if a := e.Alpha(j); a != 0 {
		t.Fatalf("alpha = %v, want 0", a)
	}
	// Amdahl-ish: S(10)=5 => alpha = (10/5-1)/9 = 1/9.
	j.Reports = append(j.Reports, sched.Report{Procs: 10, Speedup: 5})
	e.ReportPerformance(0, j, j.Reports[len(j.Reports)-1])
	if a := e.Alpha(j); a < 0.05 || a > 0.12 {
		t.Fatalf("alpha = %v", a)
	}
	// Superlinear: S(10)=15 => negative alpha.
	j.Reports = []sched.Report{{Procs: 10, Speedup: 15}}
	e.ReportPerformance(0, j, j.Reports[0])
	if a := e.Alpha(j); a >= 0 {
		t.Fatalf("alpha = %v, want negative for superlinear", a)
	}
}

func TestEqualEfficiencyFavorsEfficientJob(t *testing.T) {
	e := NewEqualEfficiency()
	good := &sched.JobView{ID: 1, Slot: 0, Request: 30}
	bad := &sched.JobView{ID: 2, Slot: 1, Request: 30}
	e.JobStarted(0, good)
	e.JobStarted(0, bad)
	good.Reports = []sched.Report{{Procs: 8, Speedup: 7.8}} // alpha ~0.004
	bad.Reports = []sched.Report{{Procs: 8, Speedup: 2}}    // alpha ~0.43
	e.ReportPerformance(0, good, good.Reports[0])
	e.ReportPerformance(0, bad, bad.Reports[0])
	got := plan(e, 40, good, bad)
	if got[1] <= got[2] {
		t.Fatalf("plan = %v, efficient job should dominate", got)
	}
	if got[1]+got[2] != 40 {
		t.Fatalf("plan total = %d, want full machine use", got[1]+got[2])
	}
}

func TestEqualEfficiencySuperlinearCapture(t *testing.T) {
	// A superlinear job (negative alpha) must capture nearly everything up
	// to its request — the pathology the paper reports (2..28 CPUs for
	// identical swims).
	e := NewEqualEfficiency()
	super := &sched.JobView{ID: 1, Slot: 0, Request: 28}
	normal := &sched.JobView{ID: 2, Slot: 1, Request: 30}
	e.JobStarted(0, super)
	e.JobStarted(0, normal)
	super.Reports = []sched.Report{{Procs: 12, Speedup: 17}}
	normal.Reports = []sched.Report{{Procs: 12, Speedup: 10}}
	e.ReportPerformance(0, super, super.Reports[0])
	e.ReportPerformance(0, normal, normal.Reports[0])
	got := plan(e, 30, super, normal)
	if got[1] != 28 {
		t.Fatalf("superlinear job got %d, want its full request 28", got[1])
	}
	if got[2] != 2 {
		t.Fatalf("normal job got %d, want leftovers 2", got[2])
	}
}

func TestEqualEfficiencyRunToCompletionMinimum(t *testing.T) {
	e := NewEqualEfficiency()
	jobs := views(30, 30, 30)
	for _, j := range jobs {
		e.JobStarted(0, j)
	}
	got := plan(e, 2, jobs...)
	one := 0
	for _, n := range got {
		if n == 1 {
			one++
		}
	}
	if one != 2 {
		t.Fatalf("plan = %v, want the 2 CPUs spread one per job", got)
	}
}

func TestEqualEfficiencyUnknownJobOptimistic(t *testing.T) {
	e := NewEqualEfficiency()
	known := &sched.JobView{ID: 1, Slot: 1, Request: 30}
	fresh := &sched.JobView{ID: 2, Slot: 0, Request: 30}
	e.JobStarted(0, known)
	e.JobStarted(0, fresh)
	known.Reports = []sched.Report{{Procs: 10, Speedup: 4}} // poor
	e.ReportPerformance(0, known, known.Reports[0])
	got := plan(e, 30, known, fresh)
	if got[2] <= got[1] {
		t.Fatalf("plan = %v, unmeasured job should win on optimism", got)
	}
}

// TestEqualEfficiencyCleanup finishes a measured job and starts a new one
// in its slot: the newcomer must start from the optimistic alpha 0, not
// the previous occupant's fit.
func TestEqualEfficiencyCleanup(t *testing.T) {
	e := NewEqualEfficiency()
	j := &sched.JobView{ID: 1, Slot: 3, Request: 30}
	e.JobStarted(0, j)
	j.Reports = []sched.Report{{Procs: 10, Speedup: 5}}
	e.ReportPerformance(0, j, j.Reports[0])
	if e.Alpha(j) == 0 {
		t.Fatal("fixture: no fit")
	}
	e.JobFinished(0, j)
	next := &sched.JobView{ID: 9, Slot: 3, Request: 30}
	e.JobStarted(0, next)
	if a := e.Alpha(next); a != 0 {
		t.Fatalf("new job in a reused slot starts with alpha %v, want 0", a)
	}
	if e.Name() != "Equal_eff" {
		t.Fatal("name")
	}
}

func TestEqualEfficiencyIgnoresUnusableSamples(t *testing.T) {
	e := NewEqualEfficiency()
	j := &sched.JobView{ID: 1, Request: 4}
	e.JobStarted(0, j)
	j.Reports = []sched.Report{{Procs: 1, Speedup: 1}, {Procs: 0, Speedup: 0}}
	e.ReportPerformance(0, j, j.Reports[1])
	if e.Alpha(j) != 0 {
		t.Fatalf("alpha = %v from unusable samples", e.Alpha(j))
	}
}

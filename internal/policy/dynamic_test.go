package policy

import (
	"testing"

	"pdpasim/internal/sched"
)

func TestDynamicMarginalWaterfill(t *testing.T) {
	d := NewDynamic()
	scalable := &sched.JobView{ID: 1, Slot: 0, Request: 30}
	flat := &sched.JobView{ID: 2, Slot: 1, Request: 30}
	d.JobStarted(0, scalable)
	d.JobStarted(0, flat)
	scalable.Reports = []sched.Report{{Procs: 8, Speedup: 7.8}}
	flat.Reports = []sched.Report{{Procs: 8, Speedup: 1.5}}
	d.ReportPerformance(0, scalable, scalable.Reports[0])
	d.ReportPerformance(0, flat, flat.Reports[0])

	got := plan(d, 20, scalable, flat)
	// Marginal speedup of the flat job is near zero: it keeps the
	// run-to-completion single processor, the scalable job takes the rest.
	if got[2] > 3 {
		t.Fatalf("flat job got %d processors", got[2])
	}
	if got[1] < 17 {
		t.Fatalf("scalable job got %d processors", got[1])
	}
	if got[1]+got[2] != 20 {
		t.Fatalf("plan wastes processors: %v", got)
	}
}

func TestDynamicUnmeasuredOptimistic(t *testing.T) {
	d := NewDynamic()
	j := &sched.JobView{ID: 1, Request: 16}
	d.JobStarted(0, j)
	got := plan(d, 60, j)
	if got[1] != 16 {
		t.Fatalf("fresh job got %d, want its request (optimistic linear fit)", got[1])
	}
}

func TestDynamicRunToCompletionMinimum(t *testing.T) {
	d := NewDynamic()
	jobs := views(30, 30, 30)
	for _, j := range jobs {
		d.JobStarted(0, j)
	}
	got := plan(d, 2, jobs...)
	granted := 0
	for _, n := range got {
		granted += n
	}
	if granted != 2 {
		t.Fatalf("plan = %v", got)
	}
}

// TestDynamicCleanup finishes a measured job and starts a new one in its
// slot: the newcomer's fit must start at alpha 0.
func TestDynamicCleanup(t *testing.T) {
	d := NewDynamic()
	j := &sched.JobView{ID: 7, Slot: 2, Request: 4}
	d.JobStarted(0, j)
	j.Reports = []sched.Report{{Procs: 4, Speedup: 2}}
	d.ReportPerformance(0, j, j.Reports[0])
	if d.alpha[2] == 0 {
		t.Fatal("fixture: no fit")
	}
	d.JobFinished(0, j)
	d.JobStarted(0, &sched.JobView{ID: 8, Slot: 2, Request: 4})
	if d.alpha[2] != 0 {
		t.Fatalf("new job in a reused slot starts with alpha %v, want 0", d.alpha[2])
	}
	if d.Name() != "Dynamic" || !d.WantsNewJob(&sched.View{}) {
		t.Fatal("identity")
	}
}

func TestDynamicIgnoresBadSamples(t *testing.T) {
	d := NewDynamic()
	j := &sched.JobView{ID: 1, Request: 8}
	d.JobStarted(0, j)
	j.Reports = []sched.Report{{Procs: 1, Speedup: 1}}
	d.ReportPerformance(0, j, j.Reports[0])
	if d.alpha[0] != 0 {
		t.Fatalf("alpha = %v", d.alpha[0])
	}
}

package sched

import (
	"testing"

	"pdpasim/internal/sim"
)

func TestJobViewLastReport(t *testing.T) {
	j := &JobView{ID: 1}
	if j.LastReport() != nil || j.HasPerformance() {
		t.Fatal("fresh job should have no reports")
	}
	j.Reports = append(j.Reports, Report{Procs: 4}, Report{Procs: 8})
	if got := j.LastReport(); got == nil || got.Procs != 8 {
		t.Fatalf("LastReport = %+v", got)
	}
	if !j.HasPerformance() {
		t.Fatal("HasPerformance false with reports")
	}
}

func TestViewFreeCPUs(t *testing.T) {
	v := View{NCPU: 10, Jobs: []*JobView{{Allocated: 3}, {Allocated: 4}}}
	if got := v.FreeCPUs(); got != 3 {
		t.Fatalf("free = %d", got)
	}
	v.Jobs = append(v.Jobs, &JobView{Allocated: 99})
	if got := v.FreeCPUs(); got != 0 {
		t.Fatalf("oversubscribed free = %d, want 0", got)
	}
}

func TestAtSlot(t *testing.T) {
	var s []float64
	s = AtSlot(s, 2)
	if len(s) != 3 || s[2] != 0 {
		t.Fatalf("AtSlot(nil, 2) = %v", s)
	}
	s[1] = 7
	if got := AtSlot(s, 1); len(got) != 3 || got[1] != 7 {
		t.Fatalf("AtSlot on an existing slot changed the slice: %v", got)
	}
	if got := AtSlot(s, 4); len(got) != 5 || got[1] != 7 || got[4] != 0 {
		t.Fatalf("AtSlot(s, 4) = %v", got)
	}
}

func TestReportFields(t *testing.T) {
	r := Report{At: sim.Second, Procs: 8, Speedup: 6, Efficiency: 0.75}
	if r.Efficiency != r.Speedup/float64(r.Procs) {
		t.Fatal("fixture inconsistent")
	}
}

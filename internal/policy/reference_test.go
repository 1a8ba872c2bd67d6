package policy

// Reference implementations: the map-based Equipartitioned, Equal_efficiency
// and Dynamic planning this package used before Plan wrote its decisions into
// the views in place. The in-place policies are fuzzed against them; any
// divergence would change simulated results.

import (
	"math/rand"
	"slices"
	"testing"

	"pdpasim/internal/sched"
)

func refEquipartitioned(ncpu int, jobs []*sched.JobView) map[sched.JobID]int {
	out := make(map[sched.JobID]int, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	type item struct {
		id  sched.JobID
		req int
	}
	items := make([]item, 0, len(jobs))
	for _, j := range jobs {
		req := j.Request
		if req < 1 {
			req = 1
		}
		items = append(items, item{id: j.ID, req: req})
		out[j.ID] = 0
	}
	slices.SortFunc(items, func(a, b item) int { return int(a.id - b.id) })

	remaining := ncpu
	unsat := items
	for remaining > 0 && len(unsat) > 0 {
		share := remaining / len(unsat)
		if share == 0 {
			for i := 0; i < remaining; i++ {
				out[unsat[i].id]++
			}
			remaining = 0
			break
		}
		progressed := false
		next := unsat[:0]
		for _, it := range unsat {
			if it.req-out[it.id] <= share {
				remaining -= it.req - out[it.id]
				out[it.id] = it.req
				progressed = true
			} else {
				next = append(next, it)
			}
		}
		unsat = next
		if !progressed {
			extra := remaining % len(unsat)
			for i, it := range unsat {
				out[it.id] += share
				if i < extra {
					out[it.id]++
				}
			}
			remaining = 0
			break
		}
	}
	return out
}

// refFit refits a job's alpha in place the way both water-filling policies
// did in ReportPerformance.
func refFit(alpha map[sched.JobID]float64, job *sched.JobView, window int) {
	reports := job.Reports
	if len(reports) > window {
		reports = reports[len(reports)-window:]
	}
	sum, n := 0.0, 0
	for _, rep := range reports {
		if rep.Procs <= 1 || rep.Speedup <= 0 {
			continue
		}
		a := (float64(rep.Procs)/rep.Speedup - 1) / float64(rep.Procs-1)
		sum += a
		n++
	}
	if n > 0 {
		alpha[job.ID] = sum / float64(n)
	}
}

func refDen(alpha map[sched.JobID]float64, id sched.JobID, p int) float64 {
	a := alpha[id]
	den := 1 + a*float64(p-1)
	if den < 0.05 {
		den = 0.05
	}
	return den
}

// refWaterfill is Equal_efficiency's plan (score = extrapolated efficiency
// at the next processor, bar -1) or Dynamic's (score = fitted speedup gain,
// bar 0).
func refWaterfill(ncpu int, jobs []*sched.JobView, alpha map[sched.JobID]float64, dynamic bool) map[sched.JobID]int {
	plan := make(map[sched.JobID]int, len(jobs))
	if len(jobs) == 0 {
		return plan
	}
	fitted := func(id sched.JobID, p int) float64 {
		if p < 1 {
			return 0
		}
		return float64(p) / refDen(alpha, id, p)
	}
	remaining := ncpu
	for _, j := range jobs {
		if remaining == 0 {
			plan[j.ID] = 0
			continue
		}
		plan[j.ID] = 1
		remaining--
	}
	for remaining > 0 {
		var best *sched.JobView
		bestScore := -1.0
		if dynamic {
			bestScore = 0
		}
		for _, j := range jobs {
			if plan[j.ID] >= j.Request {
				continue
			}
			score := 1 / refDen(alpha, j.ID, plan[j.ID]+1)
			if dynamic {
				score = fitted(j.ID, plan[j.ID]+1) - fitted(j.ID, plan[j.ID])
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		if best == nil {
			break
		}
		plan[best.ID]++
		remaining--
	}
	return plan
}

// randomJobs decodes data into an ID-sorted job list: six bytes per job
// give the gap to the previous ID (IDs are not contiguous), the request
// (possibly zero, odd ones rigid) and two performance reports whose speedup
// may exceed the processor count (superlinear, negative alpha). Slots are
// handed out in reverse so they never line up with positions or IDs.
func randomJobs(data []byte) []*sched.JobView {
	n := min(len(data)/6, 24)
	jobs := make([]*sched.JobView, n)
	id := sched.JobID(0)
	for i := range jobs {
		b := data[6*i : 6*i+6]
		id += sched.JobID(b[0]%5) + 1
		j := &sched.JobView{ID: id, Slot: n - 1 - i, Request: int(b[1]) % 40, Gran: 1}
		if j.Request%2 == 1 {
			j.Gran = j.Request
		}
		j.Reports = []sched.Report{
			{Procs: int(b[2]) % 33, Speedup: float64(b[3]) / 4},
			{Procs: int(b[4]) % 33, Speedup: float64(b[5]) / 4},
		}
		jobs[i] = j
	}
	return jobs
}

// checkAgainstReference runs Equipartition, Equal_efficiency and Dynamic and
// their references through the same arrivals, reports, one completion and
// one arrival into the freed slot, comparing every plan.
func checkAgainstReference(t *testing.T, ncpu int, data []byte) {
	for _, kind := range []string{"equip", "equal_eff", "dynamic"} {
		var pol sched.Policy
		window := 0
		switch kind {
		case "equip":
			pol = NewEquipartition()
		case "equal_eff":
			pol, window = NewEqualEfficiency(), 1
		case "dynamic":
			pol, window = NewDynamic(), 3
		}
		jobs := randomJobs(data)
		alpha := map[sched.JobID]float64{}
		compare := func(stage string) {
			v := &sched.View{NCPU: ncpu, Jobs: jobs}
			for _, j := range jobs {
				j.Want = sched.Keep
			}
			pol.Plan(v)
			var want map[sched.JobID]int
			if kind == "equip" {
				want = refEquipartitioned(ncpu, jobs)
			} else {
				want = refWaterfill(ncpu, jobs, alpha, kind == "dynamic")
			}
			for _, j := range jobs {
				if j.Want != want[j.ID] {
					t.Fatalf("%s %s: ncpu %d job %d (request %d) wants %d, reference %d",
						kind, stage, ncpu, j.ID, j.Request, j.Want, want[j.ID])
				}
			}
		}
		for _, j := range jobs {
			pol.JobStarted(0, j)
			alpha[j.ID] = 0
		}
		compare("arrivals")
		for _, j := range jobs {
			pol.ReportPerformance(0, j, j.Reports[len(j.Reports)-1])
			if window > 0 {
				refFit(alpha, j, window)
			}
		}
		compare("reports")
		if len(jobs) == 0 {
			continue
		}
		gone := jobs[0]
		pol.JobFinished(0, gone)
		delete(alpha, gone.ID)
		fresh := &sched.JobView{ID: jobs[len(jobs)-1].ID + 1, Slot: gone.Slot, Request: gone.Request, Gran: 1}
		jobs = append(jobs[1:], fresh)
		pol.JobStarted(0, fresh)
		alpha[fresh.ID] = 0
		compare("slot reuse")
	}
}

func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(uint8(60), []byte{1, 30, 8, 30, 16, 60, 1, 30, 8, 8, 8, 2})
	f.Add(uint8(2), []byte{1, 5, 4, 4, 0, 0, 3, 5, 4, 2, 0, 0, 2, 5, 9, 99, 9, 99})
	f.Add(uint8(30), []byte{0, 28, 12, 68, 12, 68, 4, 30, 12, 40, 12, 40})
	f.Add(uint8(7), []byte{2, 0, 0, 0, 1, 4, 4, 3, 4, 200, 3, 1})
	f.Fuzz(func(t *testing.T, ncpu uint8, data []byte) {
		checkAgainstReference(t, int(ncpu)%100+1, data)
	})
}

// TestPlanMatchesReference runs the fuzz check over a fixed pseudo-random
// corpus, so every plain go test covers thousands of views.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 6*rng.Intn(25))
		rng.Read(data)
		checkAgainstReference(t, rng.Intn(100)+1, data)
	}
}

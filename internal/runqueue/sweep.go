package runqueue

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"pdpasim"
	"pdpasim/internal/metrics"
	"pdpasim/internal/sweep"
	"pdpasim/internal/wire"
)

// SweepSpec is the wire form of a sweep submission: the policy × mix × load
// × seed grid pdpasim.Sweep runs in process, expressed as a batch of member
// runs. Every member flows through the pool's ordinary machinery — the
// PDPA-style MPL admission rule, the canonical-config result cache, and
// singleflight deduplication — so overlapping sweeps share simulations
// instead of repeating them.
type SweepSpec wire.SweepSpec

func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.Loads) == 0 {
		s.Loads = []float64{1.0}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{0}
	}
	return s
}

// WithDefaults returns the spec with the grid defaults made explicit
// (loads {1.0}, seeds {0}) — the resolved form statuses report and the
// fleet coordinator shards.
func (s SweepSpec) WithDefaults() SweepSpec { return s.withDefaults() }

// Members expands the grid into one Spec per run, cells enumerated mixes →
// loads → policies with each cell's seeds contiguous — the same order the
// in-process engine uses, so the aggregated cells line up.
func (s SweepSpec) Members() []Spec {
	s = s.withDefaults()
	var out []Spec
	for _, mix := range s.Mixes {
		for _, load := range s.Loads {
			for _, pol := range s.Policies {
				for _, seed := range s.Seeds {
					opts := s.Options
					opts.Policy = pol
					opts.Seed = seed
					out = append(out, Spec{
						Workload: WorkloadSpec{
							Mix: mix, Load: load, NCPU: s.NCPU,
							WindowS: s.WindowS, Seed: seed,
							UniformRequest: s.UniformRequest,
						},
						Options: opts,
					})
				}
			}
		}
	}
	return out
}

// Validate checks the whole grid: every member must be individually valid.
func (s SweepSpec) Validate() error {
	if len(s.Policies) == 0 {
		return fmt.Errorf("runqueue: sweep needs at least one policy")
	}
	if len(s.Mixes) == 0 {
		return fmt.Errorf("runqueue: sweep needs at least one mix")
	}
	for _, m := range s.Members() {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// sweepRec is the pool's record of one submitted sweep. Immutable after
// creation; member state lives in the member runs.
type sweepRec struct {
	id        string
	spec      SweepSpec // defaults resolved
	runIDs    []string  // one per member, grid order
	submitted time.Time
}

// SweepSubmitResult reports how a sweep submission was resolved.
type SweepSubmitResult struct {
	ID string
	// RunIDs are the member run IDs in grid order (cells in mixes → loads →
	// policies order, seeds contiguous).
	RunIDs []string
	// CacheHits and Deduped count members resolved without new simulation.
	CacheHits int
	Deduped   int
}

// SweepCell is one aggregated grid cell in a sweep's status.
type SweepCell = sweep.Cell

// SweepStatus is a consistent snapshot of a sweep's progress and, once every
// member is done, its per-cell aggregates.
type SweepStatus struct {
	ID        string
	Spec      SweepSpec
	Submitted time.Time
	// State summarizes the members: "failed" or "canceled" if any member
	// ended that way, "done" when all succeeded, else "running" ("queued"
	// until the first member starts).
	State State
	// Done counts members in a terminal state; Total is the grid size.
	Done  int
	Total int
	// RunIDs are the member run IDs in grid order.
	RunIDs []string
	// Errors collects distinct member failure messages (at most one per
	// member, grid order).
	Errors []string
	// Cells holds the per-cell aggregates (mean, stddev, 95% CI over the
	// seed replicates), present only when State is Done. Every member result
	// uses the same Outcome JSON schema as GET /v1/runs/{id}.
	Cells []SweepCell
}

// SubmitSweep atomically submits every member of the grid: either the whole
// batch is accepted (members resolved against the cache and singleflight
// index count as accepted) or nothing is enqueued. The admission controller
// then starts members under the same PDPA-MPL rule as individually submitted
// runs. deadline applies to each member individually.
func (p *Pool) SubmitSweep(spec SweepSpec, deadline time.Duration) (SweepSubmitResult, error) {
	if err := spec.Validate(); err != nil {
		return SweepSubmitResult{}, err
	}
	resolved := spec.withDefaults()
	members := resolved.Members()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return SweepSubmitResult{}, ErrDraining
	}
	// Capacity pre-check so a too-large sweep fails atomically instead of
	// enqueueing a truncated grid. Members already cached, deduplicated, or
	// duplicated inside the sweep need no queue slot; counting every
	// remaining member as fresh over-estimates, never under-estimates.
	fresh := 0
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		key := m.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := p.byKey[key]; !ok {
			fresh++
		}
	}
	if len(p.queue)+fresh > p.cfg.QueueLimit {
		return SweepSubmitResult{}, ErrQueueFull
	}
	// Load shedding applies to the batch as a whole: were any member going
	// to land past the shed depth, submitLocked would reject it mid-batch —
	// shed the sweep up front instead, keeping batch admission atomic.
	if p.cfg.ShedDepth > 0 && len(p.queue)+fresh > p.cfg.ShedDepth {
		p.met.sheds.Inc()
		return SweepSubmitResult{}, &OverloadError{Depth: len(p.queue), RetryAfter: p.retryAfterLocked()}
	}

	res := SweepSubmitResult{RunIDs: make([]string, 0, len(members))}
	for _, m := range members {
		sub, err := p.submitLocked(m, deadline)
		if err != nil {
			// Unreachable after the pre-checks; fail loudly if it ever isn't.
			panic("runqueue: sweep member rejected after capacity check: " + err.Error())
		}
		res.RunIDs = append(res.RunIDs, sub.ID)
		if sub.CacheHit {
			res.CacheHits++
		}
		if sub.Deduped {
			res.Deduped++
		}
	}
	p.sweepSeq++
	rec := &sweepRec{
		id:        fmt.Sprintf("sweep-%06d", p.sweepSeq),
		spec:      resolved,
		runIDs:    res.RunIDs,
		submitted: time.Now(),
	}
	if p.sweeps == nil {
		p.sweeps = make(map[string]*sweepRec)
	}
	p.sweeps[rec.id] = rec
	p.persistSweepLocked(rec)
	res.ID = rec.id
	p.admitLocked()
	return res, nil
}

// GetSweep returns a sweep's aggregated status. Cells are computed from the
// members' cached result JSON once every member is done.
func (p *Pool) GetSweep(id string) (SweepStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.sweeps[id]
	if !ok {
		return SweepStatus{}, ErrNotFound
	}
	return p.sweepStatusLocked(rec), nil
}

// Sweeps lists every known sweep's status, newest first.
func (p *Pool) Sweeps() []SweepStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SweepStatus, 0, len(p.sweeps))
	for _, rec := range p.sweeps {
		out = append(out, p.sweepStatusLocked(rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// CancelSweep cancels every non-terminal member. Members shared with other
// submissions (deduplicated runs) are cancelled too — the pool has no
// per-subscriber reference counting.
func (p *Pool) CancelSweep(id string) (SweepStatus, error) {
	p.mu.Lock()
	rec, ok := p.sweeps[id]
	if !ok {
		p.mu.Unlock()
		return SweepStatus{}, ErrNotFound
	}
	ids := append([]string(nil), rec.runIDs...)
	p.mu.Unlock()
	for _, runID := range ids {
		p.Cancel(runID) // unknown IDs (evicted history) are skipped below
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sweepStatusLocked(rec), nil
}

func (p *Pool) sweepStatusLocked(rec *sweepRec) SweepStatus {
	st := SweepStatus{ID: rec.id, Spec: rec.spec, Submitted: rec.submitted, RunIDs: rec.runIDs}
	return AggregateSweep(st, func(id string) (SweepMember, bool) {
		r, ok := p.runs[id]
		if !ok {
			return SweepMember{}, false
		}
		m := SweepMember{State: r.state, Result: r.resultJSON}
		if r.err != nil {
			m.Err = r.err.Error()
		}
		return m, true
	})
}

// SweepMember is one member run's state as a sweep status reads it.
type SweepMember struct {
	State State
	// Err is the failure message, "" if none.
	Err string
	// Result is the Outcome JSON once State is Done.
	Result []byte
}

// AggregateSweep fills in st's progress and state and, once every member is
// done, its per-cell aggregates. st carries the sweep's identity: ID, Spec
// (defaults resolved), Submitted, and RunIDs in grid order. member reports
// one member run by ID; ok is false when the run is gone from history. The
// pool and the fleet coordinator both aggregate here, which is what keeps
// a fleet sweep's cells byte-identical to a standalone pool's.
func AggregateSweep(st SweepStatus, member func(id string) (SweepMember, bool)) SweepStatus {
	st.Total = len(st.RunIDs)
	st.State = Queued
	allDone := true
	anyStarted := false
	var exports []metrics.Export
	for _, runID := range st.RunIDs {
		m, ok := member(runID)
		if !ok {
			// Member evicted from history: its result is gone; the sweep can
			// no longer be aggregated.
			st.Errors = append(st.Errors, fmt.Sprintf("%s: evicted from history", runID))
			st.State = Failed
			return st
		}
		if m.State != Queued {
			anyStarted = true
		}
		if m.State.Terminal() {
			st.Done++
		}
		switch m.State {
		case Done:
			if allDone {
				var ex metrics.Export
				if err := json.Unmarshal(m.Result, &ex); err != nil {
					st.Errors = append(st.Errors, fmt.Sprintf("%s: decoding result: %v", runID, err))
					st.State = Failed
					return st
				}
				exports = append(exports, ex)
			}
		case Failed:
			allDone = false
			st.State = Failed
			if m.Err != "" {
				st.Errors = append(st.Errors, fmt.Sprintf("%s: %s", runID, m.Err))
			}
		case Canceled:
			allDone = false
			if st.State != Failed {
				st.State = Canceled
			}
		default:
			allDone = false
		}
	}
	if st.State == Queued && anyStarted {
		st.State = Running
	}
	if !allDone {
		return st
	}
	st.State = Done
	// Aggregate exactly as the in-process engine does: cells in grid order,
	// each over its contiguous block of seed replicates.
	nseeds := len(st.Spec.Seeds)
	i := 0
	for _, mix := range st.Spec.Mixes {
		for _, load := range st.Spec.Loads {
			for _, pol := range st.Spec.Policies {
				st.Cells = append(st.Cells, sweep.Summarize(
					canonicalPolicy(pol), mix, load, st.Spec.Seeds, exports[i:i+nseeds]))
				i += nseeds
			}
		}
	}
	return st
}

// canonicalPolicy renders the policy name as the simulator reports it, so
// sweep cells match the "policy" field of the member results.
func canonicalPolicy(pol string) string {
	if p, err := pdpasim.ParsePolicy(pol); err == nil {
		return string(p)
	}
	return pol
}

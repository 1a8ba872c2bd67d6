// Package wire defines every JSON shape of the pdpad v1 API, once: the run
// and sweep planes every daemon role serves, the error envelope, and the
// fleet's node plane. The server encodes these types, the client decodes
// them (package client re-exports them as aliases), and the coordinator
// passes node answers through them unchanged, so no two parties can
// disagree about a field.
package wire

import (
	"encoding/json"
	"time"
)

// Workload is what workload to generate. Zero fields take the simulator's
// defaults (load 1.0, 60 CPUs, 300 s window).
type Workload struct {
	// Mix is "w1", "w2", "w3", or "w4" (Table 1 of the paper).
	Mix string `json:"mix"`
	// Load is the estimated processor demand fraction; 0 means 1.0.
	Load float64 `json:"load,omitempty"`
	// NCPU is the machine size; 0 means 60.
	NCPU int `json:"ncpu,omitempty"`
	// WindowS is the submission window in seconds; 0 means 300.
	WindowS float64 `json:"window_s,omitempty"`
	// Seed drives the arrival process.
	Seed int64 `json:"seed,omitempty"`
	// UniformRequest forces every job's processor request (the paper's
	// "not tuned" experiments use 30); 0 keeps tuned requests.
	UniformRequest int `json:"uniform_request,omitempty"`
}

// RunOptions is how to schedule the workload. PDPA parameters left zero
// take the paper's defaults.
type RunOptions struct {
	// Policy is the scheduling regime: irix, gang, equip, equal_eff,
	// dynamic, pdpa, or pdpa_adaptive.
	Policy string `json:"policy"`
	// TargetEff, HighEff, Step, BaseMPL, and MaxStableTransitions override
	// individual PDPA parameters; zero fields keep the paper's values.
	TargetEff            float64 `json:"target_eff,omitempty"`
	HighEff              float64 `json:"high_eff,omitempty"`
	Step                 int     `json:"step,omitempty"`
	BaseMPL              int     `json:"base_mpl,omitempty"`
	MaxStableTransitions int     `json:"max_stable_transitions,omitempty"`
	// FixedMPL is the fixed multiprogramming level for the non-PDPA
	// regimes; 0 means 4.
	FixedMPL int `json:"fixed_mpl,omitempty"`
	// NoiseSigma is the SelfAnalyzer measurement noise; 0 means the default
	// 1%, negative disables noise.
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// Seed drives measurement noise.
	Seed int64 `json:"seed,omitempty"`
	// NUMANodeSize groups CPUs into NUMA nodes; 0 or 1 keeps a flat SMP.
	NUMANodeSize int `json:"numa_node_size,omitempty"`
}

// Spec is a workload plus its scheduling options — one unit of work.
type Spec struct {
	Workload Workload   `json:"workload"`
	Options  RunOptions `json:"options"`
}

// SubmitRunRequest is the POST /v1/runs payload.
type SubmitRunRequest struct {
	Workload Workload   `json:"workload"`
	Options  RunOptions `json:"options"`
	// DeadlineS bounds the run's total latency in seconds, queue wait
	// included; 0 uses the daemon's default.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// SubmitResult reports how a run submission was resolved.
type SubmitResult struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CacheHit: an identical spec had already completed; the result is
	// immediately available.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Deduped: an identical spec was already queued or running; this
	// submission joined it.
	Deduped bool `json:"deduped,omitempty"`
}

// RunView is a run's status, with the full result JSON once done.
type RunView struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	WallSeconds float64    `json:"wall_seconds,omitempty"`
	CacheKey    string     `json:"cache_key"`
	Spec        Spec       `json:"spec"`
	// Result is the Outcome JSON, present once State is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the view's state is final.
func (v *RunView) Terminal() bool { return Terminal(v.State) }

// Terminal reports whether a run or sweep state string is final.
func Terminal(state string) bool {
	switch state {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// RunPage is one page of GET /v1/runs, newest first. A non-empty
// NextCursor fetches the next page; its absence marks the last page.
type RunPage struct {
	Runs       []RunView `json:"runs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// ReconcileRequest is the POST /v1/runs/reconcile payload: the run IDs a
// restarted coordinator believes the target node owns.
type ReconcileRequest struct {
	IDs []string `json:"ids"`
}

// ReconcileResult answers a reconcile probe: full views (results included)
// for the runs the node has a record of, and the IDs it knows nothing
// about.
type ReconcileResult struct {
	Runs    []RunView `json:"runs,omitempty"`
	Missing []string  `json:"missing,omitempty"`
}

// Event is one server-sent lifecycle event from GET /v1/runs/{id}/events.
type Event struct {
	RunID   string    `json:"run_id"`
	State   string    `json:"state"`
	At      time.Time `json:"at"`
	Message string    `json:"message,omitempty"`
}

// SweepSpec is a sweep grid: policies × mixes × loads × seeds, sharing
// workload parameters and scheduling options.
type SweepSpec struct {
	// Policies and Mixes span the grid (required, at least one each).
	Policies []string `json:"policies"`
	Mixes    []string `json:"mixes"`
	// Loads are the demand levels; empty means {1.0}.
	Loads []float64 `json:"loads,omitempty"`
	// Seeds are the replicate seeds aggregated per cell; empty means {0}.
	// Each member run uses its seed for both the workload and the
	// measurement noise.
	Seeds []int64 `json:"seeds,omitempty"`
	// NCPU, WindowS, and UniformRequest parameterize workload generation
	// exactly as Workload does.
	NCPU           int     `json:"ncpu,omitempty"`
	WindowS        float64 `json:"window_s,omitempty"`
	UniformRequest int     `json:"uniform_request,omitempty"`
	// Options carries the scheduling knobs shared by every member; its
	// Policy and Seed fields are ignored (the grid supplies them).
	Options RunOptions `json:"options,omitempty"`
}

// SubmitSweepRequest is the POST /v1/sweeps payload.
type SubmitSweepRequest struct {
	SweepSpec
	// DeadlineS bounds each member run's total latency in seconds; 0 uses
	// the daemon's default.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// SweepSubmitResult reports how a sweep submission was resolved.
type SweepSubmitResult struct {
	ID string `json:"id"`
	// RunIDs are the member run IDs in grid order (mixes → loads →
	// policies, each cell's seeds contiguous).
	RunIDs []string `json:"run_ids"`
	// CacheHits and Deduped count members served from the result cache or
	// joined to in-flight identical runs instead of re-simulated.
	CacheHits int `json:"cache_hits,omitempty"`
	Deduped   int `json:"deduped,omitempty"`
}

// SweepView is a sweep's status; Cells carries the per-cell aggregates
// (mean/stddev/95% CI over seed replicates) once every member is done. It
// is kept raw so clients stay agnostic to the cell schema — and so two
// sweeps' cells can be compared byte for byte, which is the fleet's
// determinism contract.
type SweepView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Done        int             `json:"done"`
	Total       int             `json:"total"`
	SubmittedAt time.Time       `json:"submitted_at"`
	Spec        SweepSpec       `json:"spec"`
	RunIDs      []string        `json:"run_ids,omitempty"`
	Errors      []string        `json:"errors,omitempty"`
	Cells       json.RawMessage `json:"cells,omitempty"`
}

// SweepPage is one page of GET /v1/sweeps, newest first.
type SweepPage struct {
	Sweeps     []SweepView `json:"sweeps"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// VersionInfo is the GET /v1/version payload.
type VersionInfo struct {
	Service string `json:"service"`
	// Version is the main module's build version ("(devel)" for plain
	// go-build trees).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// APIRevision is the wire-surface revision; a coordinator refuses
	// nodes whose revision differs from its own.
	APIRevision int `json:"api_revision"`
	// Role is standalone, coordinator, or node.
	Role string `json:"role"`
}

// Health is the GET /healthz payload. The coordinator role adds the node
// counts; the standalone and node roles leave them zero.
type Health struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Queue    int     `json:"queue"`
	Inflight int     `json:"inflight"`
	Nodes    int     `json:"nodes,omitempty"`
	Healthy  int     `json:"healthy,omitempty"`
}

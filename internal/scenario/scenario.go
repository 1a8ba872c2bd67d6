// Package scenario is the stress/chaos DSL: a YAML file declares a worker
// pool, a default workload/options template, seeded fault-injection rules at
// the internal/faults sites, a timeline of events (single and bursty
// arrivals, diurnal load phases, a mid-run policy switch, cancellation), and
// assertions on the outcome (exact terminal run states, admission verdicts,
// metric bounds read from the pool's obs registry, byte-identical-result
// checks, invariant-checker verdicts, goroutine-leak checks). The runner
// executes the scenario deterministically against an in-process
// runqueue.Pool — same seed, same report, byte for byte — and renders a
// pass/fail report as text or JSON.
//
// The package turns the PR-5 chaos/invariant machinery from closed Go test
// code into an open-ended scenario library: everything a hand-written chaos
// test can script against the pool, a YAML file can now declare.
package scenario

import (
	"fmt"
	"time"

	"pdpasim/internal/faults"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/wire"
)

// Scenario is one parsed, validated scenario file.
type Scenario struct {
	Name        string
	Description string
	// Seed is the master seed: it drives the fault injector and derives the
	// workload seeds of generated arrivals. Explicit workload.seed fields in
	// the file are never touched, so assertions tied to a pinned workload
	// survive a seed override.
	Seed int64
	Pool PoolParams
	// Fleet, when set, runs the scenario against an in-process coordinator
	// plus node fleet (each node an independent pool sized by Pool) instead
	// of a bare pool; events and assertions then flow through the v1 HTTP
	// surface exactly as a remote client's would.
	Fleet *FleetParams
	// Defaults is the spec template events submit; per-event overrides merge
	// onto it field by field.
	Defaults runqueue.Spec
	// Faults are the injection rules, in the shared faults text syntax.
	Faults     []faults.Rule
	Events     []Event
	Assertions []Assertion
}

// PoolParams sizes the in-process pool a scenario runs against. The zero
// value means a deterministic single-worker pool (base=max=1) with a 1 ms
// warm-up — the configuration under which occurrence-indexed fault rules
// fire in submission order.
type PoolParams struct {
	BaseWorkers  int
	MaxWorkers   int
	Warmup       time.Duration
	QueueLimit   int
	CacheSize    int
	ShedDepth    int
	RunTimeout   time.Duration
	MaxRetries   int
	RetryBackoff time.Duration
}

func (p PoolParams) config() runqueue.Config {
	base := p.BaseWorkers
	if base <= 0 {
		base = 1
	}
	max := p.MaxWorkers
	if max <= 0 {
		max = base
	}
	warmup := p.Warmup
	if warmup <= 0 {
		warmup = time.Millisecond
	}
	backoff := p.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	return runqueue.Config{
		BaseWorkers:  base,
		MaxWorkers:   max,
		Warmup:       warmup,
		QueueLimit:   p.QueueLimit,
		CacheSize:    p.CacheSize,
		ShedDepth:    p.ShedDepth,
		RunTimeout:   p.RunTimeout,
		MaxRetries:   p.MaxRetries,
		RetryBackoff: backoff,
		TraceLimit:   -1, // runs carry their own Observer; no retained traces
	}
}

// FleetParams sizes the coordinator + node fleet a fleet scenario runs
// against. Node indexes used by events, node_faults, and the node_states
// assertion follow registration order, which the runner makes deterministic
// by starting agents one at a time.
type FleetParams struct {
	// Nodes is how many node daemons join the coordinator.
	Nodes int
	// Placement is round_robin, least_loaded, or lpt ("" = round_robin).
	Placement string
	// Heartbeat, UnhealthyAfter, and DeadAfter time the coordinator's
	// heartbeat-timeout state machine; zeros take the fleet defaults.
	Heartbeat      time.Duration
	UnhealthyAfter time.Duration
	DeadAfter      time.Duration
	// Durable journals the coordinator's routing table to an on-disk store,
	// which is what makes kill_coordinator / restart_coordinator events
	// meaningful: the restarted coordinator rehydrates and reconciles.
	Durable bool
	// DrainIdleAfter, MinNodes, and JoinBacklog configure the elasticity
	// hooks (drain-on-idle, join-on-backlog); zeros disable them.
	DrainIdleAfter time.Duration
	MinNodes       int
	JoinBacklog    int
	// NodeFaults arms extra injection rules on a single node. The
	// scenario's global fault rules are armed on every node independently
	// (each node owns a seeded injector), so a global occurrence-indexed
	// rule fires per node, not once fleet-wide; injected assertions count
	// the sum across the coordinator and all nodes.
	NodeFaults []NodeFault
}

// NodeFault is one injection rule pinned to one node.
type NodeFault struct {
	Node int
	Rule faults.Rule
}

// Event is one timeline step. Exactly one field is set.
type Event struct {
	Submit    *SubmitEvent
	Arrivals  *ArrivalsEvent
	SetPolicy *SetPolicyEvent
	Wait      *WaitEvent
	WaitAll   bool
	Cancel    *CancelEvent
	// KillNode stops a node abruptly (agent and HTTP server die; its runs
	// are requeued once the coordinator declares it dead). CordonNode stops
	// new placements only. DrainNode decommissions: the agent stops and the
	// coordinator requeues the node's runs immediately.
	KillNode   *NodeEvent
	CordonNode *NodeEvent
	DrainNode  *NodeEvent
	// SubmitSweep submits a named sweep grid (fleet scenarios only).
	// WaitSweep blocks on its progress or terminal state.
	SubmitSweep *SubmitSweepEvent
	WaitSweep   *WaitSweepEvent
	// WaitNode blocks until a node reaches a state — how elasticity
	// scenarios observe a scale-drain land.
	WaitNode *WaitNodeEvent
	// KillCoordinator tears the coordinator down abruptly (kill -9
	// semantics: HTTP surface, monitor, and store handle all die; the
	// journal survives on disk). RestartCoordinator reopens the store and
	// brings a fresh coordinator up at the same address, which rehydrates
	// and reconciles with the returning nodes. Durable fleets only.
	KillCoordinator    bool
	RestartCoordinator bool
}

// NodeEvent targets one fleet node by registration index.
type NodeEvent struct {
	Node int
}

// SubmitSweepEvent submits one named sweep grid: policies × mixes × loads ×
// seeds, exactly the POST /v1/sweeps surface (scenarios set the grid, ncpu,
// and window_s).
type SubmitSweepEvent struct {
	Name string
	wire.SweepSpec
}

// WaitSweepEvent blocks until the named sweep reaches a terminal state
// ("done", "failed", "canceled") or, with Done set, until at least that many
// members are terminal — the hook that lets a scenario kill the coordinator
// at a known point mid-sweep.
type WaitSweepEvent struct {
	Sweep string
	State string
	Done  int
}

// WaitNodeEvent blocks until the node (by registration index) reports a
// state ("healthy", "cordoned", "unhealthy", "drained").
type WaitNodeEvent struct {
	Node  int
	State string
}

// SubmitEvent submits one named run built from the defaults template plus
// overrides.
type SubmitEvent struct {
	// Name labels the submission for waits, cancels, and assertions.
	Name string
	// Workload and Options override individual template fields; nil keeps
	// the template.
	Workload *runqueue.WorkloadSpec
	Options  *runqueue.RunOptions
}

// ArrivalsEvent submits a generated phase of runs named "<prefix>0",
// "<prefix>1", ... Their workload seeds derive from the master seed and the
// submission index, so the phase reshuffles coherently under -seed.
type ArrivalsEvent struct {
	Prefix string
	Count  int
	// Pattern shapes per-submission load: "burst" and "uniform" submit at
	// the template load; "diurnal" sweeps load sinusoidally between LoadMin
	// and LoadMax over Period submissions (day-and-night arrival pressure).
	Pattern string
	LoadMin float64
	LoadMax float64
	Period  int
}

// SetPolicyEvent switches the defaults template's policy mid-run: every
// subsequent submission schedules under the new regime.
type SetPolicyEvent struct {
	Policy string
}

// WaitEvent blocks until the named run reaches a state ("done", "failed",
// "canceled", "running", or "terminal" for any final state).
type WaitEvent struct {
	Run   string
	State string
}

// CancelEvent cancels the named run.
type CancelEvent struct {
	Run string
}

// Assertion is one outcome check. Exactly one field is set.
type Assertion struct {
	State         *StateAssertion
	States        *StatesAssertion
	Admission     *AdmissionAssertion
	ErrorContains *ErrorContainsAssertion
	Metric        *MetricAssertion
	Outcome       *OutcomeAssertion
	SameResult    *SameResultAssertion
	Injected      *InjectedAssertion
	NodeStates    *NodeStatesAssertion
	SweepState    *SweepStateAssertion
	SweepOracle   *SweepOracleAssertion
	// ReconciledRuns / AdoptedResults bound the coordinator's recovery
	// counters (pdpad_fleet_reconciled_runs_total /
	// pdpad_fleet_adopted_results_total) — sugar over a metric assertion
	// that names the crash-recovery contract directly.
	ReconciledRuns *CounterBoundAssertion
	AdoptedResults *CounterBoundAssertion
	Invariants     bool
	NoLeaks        bool
}

// SweepStateAssertion pins a sweep's terminal state.
type SweepStateAssertion struct {
	Sweep string
	Is    string
}

// SweepOracleAssertion re-runs the named sweep's grid on a fresh standalone
// single-worker daemon and requires the fleet's reassembled cells JSON to be
// byte-identical to the oracle's — the determinism contract a coordinator
// crash and recovery must not dent.
type SweepOracleAssertion struct {
	Sweep string
}

// CounterBoundAssertion bounds one recovery counter. Min/Max are inclusive;
// a nil bound is open.
type CounterBoundAssertion struct {
	Min *float64
	Max *float64
}

// NodeStatesAssertion pins every fleet node's final state (healthy,
// cordoned, unhealthy, or drained), in node-ID order. Nodes that died and
// re-registered appear once per incarnation.
type NodeStatesAssertion struct {
	Are []string
}

// StateAssertion pins one run's exact terminal state.
type StateAssertion struct {
	Run string
	Is  string
}

// StatesAssertion pins the terminal states of a generated phase, in
// submission order ("are"), or requires one state of every member ("all").
type StatesAssertion struct {
	Prefix string
	Are    []string
	All    string
}

// AdmissionAssertion pins how a submission was admitted: "fresh",
// "cache_hit", "dedup", "shed", or "queue_full".
type AdmissionAssertion struct {
	Run string
	Is  string
}

// ErrorContainsAssertion requires a run's error message to contain a
// substring.
type ErrorContainsAssertion struct {
	Run    string
	Substr string
}

// MetricAssertion bounds one series of the pool's metric registry (the same
// numbers /metrics exposes). Min/Max are inclusive; a nil bound is open.
type MetricAssertion struct {
	Name  string
	Label string
	Min   *float64
	Max   *float64
}

// OutcomeAssertion checks fields of a completed run's result.
type OutcomeAssertion struct {
	Run          string
	Policy       string
	Workload     string
	Jobs         *int
	MakespanSMin *float64
	MakespanSMax *float64
}

// SameResultAssertion requires the named runs' result JSON to be
// byte-identical — the check that proves fault handling has no blast radius
// beyond its target.
type SameResultAssertion struct {
	Runs []string
}

// InjectedAssertion pins how many occurrences of a site fired a rule.
type InjectedAssertion struct {
	Site  faults.Site
	Count int
}

// Validate applies cross-field checks the per-field decoder cannot see.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return &ParseError{Msg: "scenario needs a name"}
	}
	if len(s.Events) == 0 {
		return &ParseError{Msg: fmt.Sprintf("scenario %q declares no events", s.Name)}
	}
	named := map[string]bool{}
	refs := func(name, where string) error {
		if !named[name] {
			return &ParseError{Msg: fmt.Sprintf("%s references run %q before any event names it", where, name)}
		}
		return nil
	}
	nodeRef := func(n int, where string) error {
		if s.Fleet == nil {
			return &ParseError{Msg: fmt.Sprintf("%s needs a fleet: stanza", where)}
		}
		if n < 0 || n >= s.Fleet.Nodes {
			return &ParseError{Msg: fmt.Sprintf("%s: node %d out of range (fleet has %d nodes)", where, n, s.Fleet.Nodes)}
		}
		return nil
	}
	if s.Fleet != nil {
		for i, nf := range s.Fleet.NodeFaults {
			if err := nodeRef(nf.Node, fmt.Sprintf("fleet.node_faults[%d]", i)); err != nil {
				return err
			}
		}
	}
	sweeps := map[string]bool{}
	sweepRefs := func(name, where string) error {
		if !sweeps[name] {
			return &ParseError{Msg: fmt.Sprintf("%s references sweep %q before any event names it", where, name)}
		}
		return nil
	}
	durableRef := func(where string) error {
		if s.Fleet == nil {
			return &ParseError{Msg: fmt.Sprintf("%s needs a fleet: stanza", where)}
		}
		if !s.Fleet.Durable {
			return &ParseError{Msg: fmt.Sprintf("%s needs fleet.durable: true (nothing survives a coordinator kill without a store)", where)}
		}
		return nil
	}
	coordDown := false
	for i, e := range s.Events {
		where := fmt.Sprintf("events[%d]", i)
		switch {
		case e.Submit != nil:
			if named[e.Submit.Name] {
				return &ParseError{Msg: fmt.Sprintf("%s: duplicate run name %q", where, e.Submit.Name)}
			}
			named[e.Submit.Name] = true
		case e.Arrivals != nil:
			for j := 0; j < e.Arrivals.Count; j++ {
				n := fmt.Sprintf("%s%d", e.Arrivals.Prefix, j)
				if named[n] {
					return &ParseError{Msg: fmt.Sprintf("%s: generated run name %q collides", where, n)}
				}
				named[n] = true
			}
		case e.Wait != nil:
			if err := refs(e.Wait.Run, where); err != nil {
				return err
			}
		case e.Cancel != nil:
			if err := refs(e.Cancel.Run, where); err != nil {
				return err
			}
		case e.KillNode != nil:
			if err := nodeRef(e.KillNode.Node, where+".kill_node"); err != nil {
				return err
			}
		case e.CordonNode != nil:
			if err := nodeRef(e.CordonNode.Node, where+".cordon_node"); err != nil {
				return err
			}
		case e.DrainNode != nil:
			if err := nodeRef(e.DrainNode.Node, where+".drain_node"); err != nil {
				return err
			}
		case e.SubmitSweep != nil:
			if s.Fleet == nil {
				return &ParseError{Msg: fmt.Sprintf("%s.submit_sweep needs a fleet: stanza", where)}
			}
			if sweeps[e.SubmitSweep.Name] {
				return &ParseError{Msg: fmt.Sprintf("%s: duplicate sweep name %q", where, e.SubmitSweep.Name)}
			}
			sweeps[e.SubmitSweep.Name] = true
		case e.WaitSweep != nil:
			if err := sweepRefs(e.WaitSweep.Sweep, where+".wait_sweep"); err != nil {
				return err
			}
		case e.WaitNode != nil:
			if err := nodeRef(e.WaitNode.Node, where+".wait_node"); err != nil {
				return err
			}
		case e.KillCoordinator:
			if err := durableRef(where + ".kill_coordinator"); err != nil {
				return err
			}
			if coordDown {
				return &ParseError{Msg: fmt.Sprintf("%s.kill_coordinator: the coordinator is already down", where)}
			}
			coordDown = true
		case e.RestartCoordinator:
			if err := durableRef(where + ".restart_coordinator"); err != nil {
				return err
			}
			if !coordDown {
				return &ParseError{Msg: fmt.Sprintf("%s.restart_coordinator without a preceding kill_coordinator", where)}
			}
			coordDown = false
		}
		if coordDown {
			switch {
			case e.KillCoordinator, e.RestartCoordinator:
			default:
				return &ParseError{Msg: fmt.Sprintf("%s: only restart_coordinator may follow kill_coordinator (the coordinator is down)", where)}
			}
		}
	}
	if coordDown {
		return &ParseError{Msg: "scenario ends with the coordinator down: add a restart_coordinator event"}
	}
	for i, a := range s.Assertions {
		where := fmt.Sprintf("assertions[%d]", i)
		var check []string
		switch {
		case a.State != nil:
			check = []string{a.State.Run}
		case a.Admission != nil:
			check = []string{a.Admission.Run}
		case a.ErrorContains != nil:
			check = []string{a.ErrorContains.Run}
		case a.Outcome != nil:
			check = []string{a.Outcome.Run}
		case a.SameResult != nil:
			check = a.SameResult.Runs
		case a.NodeStates != nil:
			if s.Fleet == nil {
				return &ParseError{Msg: fmt.Sprintf("%s.node_states needs a fleet: stanza", where)}
			}
		case a.SweepState != nil:
			if err := sweepRefs(a.SweepState.Sweep, where+".sweep_state"); err != nil {
				return err
			}
		case a.SweepOracle != nil:
			if err := sweepRefs(a.SweepOracle.Sweep, where+".sweep_cells_match_oracle"); err != nil {
				return err
			}
		case a.ReconciledRuns != nil:
			if s.Fleet == nil {
				return &ParseError{Msg: fmt.Sprintf("%s.reconciled_runs needs a fleet: stanza", where)}
			}
		case a.AdoptedResults != nil:
			if s.Fleet == nil {
				return &ParseError{Msg: fmt.Sprintf("%s.adopted_results needs a fleet: stanza", where)}
			}
		}
		for _, n := range check {
			if err := refs(n, where); err != nil {
				return err
			}
		}
	}
	return nil
}

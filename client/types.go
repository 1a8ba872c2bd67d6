package client

import "pdpasim/internal/wire"

// The v1 wire types, re-exported from their one definition in
// internal/wire: the daemon, the coordinator, and this client encode and
// decode the very same structs. See internal/wire for field semantics.
type (
	Workload           = wire.Workload
	RunOptions         = wire.RunOptions
	Spec               = wire.Spec
	SubmitRunRequest   = wire.SubmitRunRequest
	SubmitResult       = wire.SubmitResult
	RunView            = wire.RunView
	RunPage            = wire.RunPage
	ReconcileRequest   = wire.ReconcileRequest
	ReconcileResult    = wire.ReconcileResult
	Event              = wire.Event
	SweepSpec          = wire.SweepSpec
	SubmitSweepRequest = wire.SubmitSweepRequest
	SweepSubmitResult  = wire.SweepSubmitResult
	SweepView          = wire.SweepView
	SweepPage          = wire.SweepPage
	VersionInfo        = wire.VersionInfo
	Health             = wire.Health

	NodeView              = wire.NodeView
	NodePage              = wire.NodePage
	NodeRegisterRequest   = wire.NodeRegisterRequest
	NodeRegisterResponse  = wire.NodeRegisterResponse
	NodeHeartbeatRequest  = wire.NodeHeartbeatRequest
	NodeHeartbeatResponse = wire.NodeHeartbeatResponse

	// APIError is a non-2xx response carrying a well-formed v1 error
	// envelope: the HTTP Status, the stable Code ("overloaded",
	// "queue_full", "draining", "not_found", ...), the free-form Message,
	// and the RetryAfterSeconds hint (0 means none).
	APIError = wire.Error
)

// Terminal reports whether a run state string is final.
func Terminal(state string) bool { return wire.Terminal(state) }

package wire

import "time"

// NodeView is one fleet node as the coordinator reports it on GET
// /v1/nodes.
type NodeView struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Addr is the node's advertised base URL.
	Addr string `json:"addr"`
	// State is healthy, cordoned, unhealthy, or drained.
	State string `json:"state"`
	// Cordoned is the manual placement stop, reported separately because
	// it persists underneath the liveness states.
	Cordoned     bool      `json:"cordoned,omitempty"`
	CPUs         int       `json:"cpus,omitempty"`
	BaseWorkers  int       `json:"base_workers,omitempty"`
	MaxWorkers   int       `json:"max_workers,omitempty"`
	RegisteredAt time.Time `json:"registered_at"`
	// LastHeartbeatAt and Heartbeats describe the heartbeat stream;
	// QueueDepth, Inflight, and Draining are the node's last snapshot.
	LastHeartbeatAt time.Time `json:"last_heartbeat_at"`
	Heartbeats      uint64    `json:"heartbeats"`
	QueueDepth      int       `json:"queue_depth"`
	Inflight        int       `json:"inflight"`
	Draining        bool      `json:"draining,omitempty"`
	// Assigned counts the coordinator-tracked runs currently placed on
	// this node and not yet terminal.
	Assigned int `json:"assigned"`
}

// NodePage is one page of GET /v1/nodes, newest first by node ID.
type NodePage struct {
	Nodes      []NodeView `json:"nodes"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

// NodeRegisterRequest is the POST /v1/nodes/register payload: a node
// announces its address, wire revision, and capacity.
type NodeRegisterRequest struct {
	// Name is an optional human label; the coordinator assigns the ID.
	Name string `json:"name,omitempty"`
	// Addr is the node's advertised base URL (how the coordinator reaches
	// its v1 surface).
	Addr string `json:"addr"`
	// APIRevision is the wire revision the node speaks; a mismatch with the
	// coordinator's is refused with code incompatible_revision.
	APIRevision int `json:"api_revision"`
	// CPUs, BaseWorkers, and MaxWorkers describe capacity: the machine
	// size its simulations model and the pool's MPL bounds.
	CPUs        int `json:"cpus,omitempty"`
	BaseWorkers int `json:"base_workers,omitempty"`
	MaxWorkers  int `json:"max_workers,omitempty"`
}

// NodeRegisterResponse acknowledges a registration: the coordinator-assigned
// node ID and the directed heartbeat cadence.
type NodeRegisterResponse struct {
	ID                 string  `json:"id"`
	HeartbeatIntervalS float64 `json:"heartbeat_interval_s"`
}

// NodeHeartbeatRequest is the periodic node → coordinator liveness report:
// the node's current queue-depth/MPL snapshot.
type NodeHeartbeatRequest struct {
	QueueDepth int  `json:"queue_depth"`
	Inflight   int  `json:"inflight"`
	Draining   bool `json:"draining,omitempty"`
}

// NodeHeartbeatResponse tells the node how the coordinator currently sees
// it. A "drained" answer is an instruction to leave the fleet.
type NodeHeartbeatResponse struct {
	State string `json:"state"`
}

package server_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// The fleet coordinator is the second server.Backend: every shared v1
// contract test also runs against a coordinator with one in-process node.
func init() {
	server.ContractBackends = append(server.ContractBackends, server.ContractBackend{
		Name:         "coordinator",
		Start:        startCoordinator,
		NotFoundBody: "{\n  \"error\": {\n    \"code\": \"not_found\",\n    \"message\": \"fleet: no run \\\"run-999999\\\"\"\n  }\n}\n",
	})
}

// startCoordinator serves a coordinator whose one node runs a pool built
// from cfg, and returns the coordinator's test server once the node has
// registered.
func startCoordinator(t *testing.T, cfg runqueue.Config) *httptest.Server {
	t.Helper()
	coord, err := fleet.NewCoordinator(fleet.Config{Health: fleet.HealthConfig{HeartbeatInterval: 30 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	pool := runqueue.New(cfg)
	nts := httptest.NewServer(server.New(pool, server.WithRole(server.RoleNode)))
	agent := fleet.StartAgent(fleet.AgentConfig{Coordinator: cts.URL, Advertise: nts.URL, CPUs: 60}, pool)
	t.Cleanup(func() {
		agent.Stop()
		coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		pool.Drain(ctx)
		cancel()
		nts.Close()
		cts.Close()
	})
	select {
	case <-agent.Registered():
	case <-time.After(10 * time.Second):
		t.Fatal("node never registered")
	}
	return cts
}

package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/wire"
)

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var update = flag.Bool("update", false, "rewrite the wire goldens under testdata/")

// wireCase is one value whose JSON encoding a golden line pins.
type wireCase struct {
	name string
	v    any
}

// checkWireGolden encodes each case through the client's types and
// compares the lines "<name> <json>" byte for byte against testdata/file.
// Zero values are cases of their own: omitempty drift only shows on zero
// fields.
func checkWireGolden(t *testing.T, file string, cases []wireCase) {
	t.Helper()
	var got strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&got, "%s %s\n", c.name, mustJSON(t, c.v))
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d drifted:\ngot  %s\nwant %s", file, i+1, g, w)
		}
	}
}

// TestWireDrift pins the run-plane wire shapes, encoded through the client's
// types, to testdata/run_plane.golden. The daemon and the coordinator encode
// the very same types, so a failure here is a change to the v1 surface.
func TestWireDrift(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	later := at.Add(3 * time.Second)
	spec := client.Spec{
		Workload: client.Workload{Mix: "w1", Load: 0.6, NCPU: 32, WindowS: 60, Seed: 7, UniformRequest: 4},
		Options: client.RunOptions{Policy: "pdpa", TargetEff: 0.7, HighEff: 0.9, Step: 2, BaseMPL: 3,
			MaxStableTransitions: 5, FixedMPL: 8, NoiseSigma: 0.01, Seed: 9, NUMANodeSize: 4},
	}
	run := client.RunView{
		ID: "run-000001", State: "done", Error: "boom",
		SubmittedAt: at, StartedAt: &at, FinishedAt: &later,
		WallSeconds: 3, CacheKey: "k", Spec: spec,
		Result: json.RawMessage(`{"ok":true}`),
	}
	sweep := client.SweepSpec{
		Policies: []string{"equip"}, Mixes: []string{"w1"}, Loads: []float64{0.5},
		Seeds: []int64{1, 2}, NCPU: 32, WindowS: 30, UniformRequest: 2, Options: spec.Options,
	}
	sweepView := client.SweepView{
		ID: "sweep-000001", State: "done", Done: 2, Total: 2, SubmittedAt: at, Spec: sweep,
		RunIDs: []string{"run-000001", "run-000002"}, Errors: []string{"e"},
		Cells: json.RawMessage(`[{"policy":"equip"}]`),
	}
	checkWireGolden(t, "run_plane.golden", []wireCase{
		{"RunView", run},
		{"RunView/zero", client.RunView{}},
		{"SubmitRunRequest", client.SubmitRunRequest{Workload: spec.Workload, Options: spec.Options, DeadlineS: 5}},
		{"SubmitRunRequest/zero", client.SubmitRunRequest{}},
		{"SubmitResult", client.SubmitResult{ID: "run-000001", State: "queued", CacheHit: true, Deduped: true}},
		{"SubmitResult/zero", client.SubmitResult{}},
		{"RunPage", client.RunPage{Runs: []client.RunView{run}, NextCursor: "c"}},
		{"RunPage/zero", client.RunPage{}},
		{"Event", client.Event{RunID: "run-000001", State: "running", At: at, Message: "m"}},
		{"Event/zero", client.Event{}},
		{"SubmitSweepRequest", client.SubmitSweepRequest{SweepSpec: sweep, DeadlineS: 5}},
		{"SubmitSweepRequest/zero", client.SubmitSweepRequest{}},
		{"SweepSubmitResult", client.SweepSubmitResult{ID: "sweep-000001", RunIDs: []string{"run-000001"}, CacheHits: 1, Deduped: 1}},
		{"SweepSubmitResult/zero", client.SweepSubmitResult{}},
		{"SweepView", sweepView},
		{"SweepView/zero", client.SweepView{}},
		{"SweepPage", client.SweepPage{Sweeps: []client.SweepView{sweepView}, NextCursor: "c"}},
		{"SweepPage/zero", client.SweepPage{}},
		{"ReconcileRequest", client.ReconcileRequest{IDs: []string{"run-000001", "run-000002"}}},
		{"ReconcileRequest/zero", client.ReconcileRequest{}},
		{"ReconcileResult", client.ReconcileResult{Runs: []client.RunView{run}, Missing: []string{"run-000009"}}},
		{"ReconcileResult/zero", client.ReconcileResult{}},
		{"VersionInfo", client.VersionInfo{Service: "pdpad", Version: "v1", GoVersion: "go", APIRevision: 1, Role: "node"}},
		{"VersionInfo/zero", client.VersionInfo{}},
		{"Health", client.Health{Status: "ok", UptimeS: 1.5, Queue: 2, Inflight: 3, Nodes: 4, Healthy: 5}},
		{"Health/zero", client.Health{}},
	})
}

// TestNodePlaneWireDrift pins the node-plane wire shapes — register,
// heartbeat, and the node views — to testdata/node_plane.golden, the same
// way TestWireDrift pins the run plane.
func TestNodePlaneWireDrift(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	node := client.NodeView{
		ID: "node-001", Name: "n1", Addr: "http://127.0.0.1:1", State: "cordoned", Cordoned: true,
		CPUs: 32, BaseWorkers: 2, MaxWorkers: 4, RegisteredAt: at, LastHeartbeatAt: at.Add(time.Second),
		Heartbeats: 9, QueueDepth: 3, Inflight: 2, Draining: true, Assigned: 1,
	}
	checkWireGolden(t, "node_plane.golden", []wireCase{
		{"NodeRegisterRequest", client.NodeRegisterRequest{
			Name: "n1", Addr: "http://127.0.0.1:1", APIRevision: 2, CPUs: 32, BaseWorkers: 2, MaxWorkers: 4}},
		{"NodeRegisterRequest/zero", client.NodeRegisterRequest{}},
		{"NodeRegisterResponse", client.NodeRegisterResponse{ID: "node-001", HeartbeatIntervalS: 2.5}},
		{"NodeRegisterResponse/zero", client.NodeRegisterResponse{}},
		{"NodeHeartbeatRequest", client.NodeHeartbeatRequest{QueueDepth: 3, Inflight: 2, Draining: true}},
		{"NodeHeartbeatRequest/zero", client.NodeHeartbeatRequest{}},
		{"NodeHeartbeatResponse", client.NodeHeartbeatResponse{State: "drained"}},
		{"NodeHeartbeatResponse/zero", client.NodeHeartbeatResponse{}},
		{"NodeView", node},
		{"NodeView/zero", client.NodeView{}},
		{"NodePage", client.NodePage{Nodes: []client.NodeView{node}, NextCursor: "c"}},
		{"NodePage/zero", client.NodePage{}},
	})
}

func newDaemon(t *testing.T, cfg runqueue.Config, opts ...server.Option) (*client.Client, *runqueue.Pool) {
	t.Helper()
	pool := runqueue.New(cfg)
	ts := httptest.NewServer(server.New(pool, opts...))
	cli := client.New(ts.URL)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		pool.Drain(ctx)
		cancel()
		ts.Close()
		cli.CloseIdleConnections()
	})
	return cli, pool
}

func instantSim(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
	ws := pdpasim.WorkloadSpec{Mix: spec.Workload.Mix, Load: 0.2, NCPU: 8,
		Window: 5 * time.Second, Seed: spec.Workload.Seed}
	return pdpasim.RunContext(ctx, ws, pdpasim.Options{Policy: pdpasim.Equipartition})
}

func TestClientEndToEnd(t *testing.T) {
	cli, _ := newDaemon(t, runqueue.Config{Warmup: time.Millisecond, Simulate: instantSim})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	v, err := cli.Version(ctx)
	if err != nil || v.Role != server.RoleStandalone || v.APIRevision != server.APIRevision {
		t.Fatalf("version = %+v, err %v", v, err)
	}
	h, err := cli.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, err %v", h, err)
	}

	sub, err := cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 1},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := cli.WaitRun(ctx, sub.ID, 0)
	if err != nil || run.State != "done" || len(run.Result) == 0 {
		t.Fatalf("run = %+v, err %v", run, err)
	}
	// The stubbed simulator records no decision trace; the absence must
	// surface as the typed 404, not a contract violation.
	if _, err := cli.Trace(ctx, sub.ID); err != nil {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatalf("trace: %v", err)
		}
	}

	var states []string
	if err := cli.FollowRun(ctx, sub.ID, func(ev client.Event) bool {
		states = append(states, ev.State)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Errorf("SSE states = %v", states)
	}

	// Pagination: five runs, pages of two, walked to exhaustion.
	for seed := int64(2); seed <= 5; seed++ {
		if _, err := cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed},
			Options:  client.RunOptions{Policy: "equip"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := cli.AllRuns(ctx, client.ListOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("AllRuns = %d runs, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID < all[i].ID {
			t.Fatalf("AllRuns not newest-first: %s before %s", all[i-1].ID, all[i].ID)
		}
	}

	sw, err := cli.SubmitSweep(ctx, client.SubmitSweepRequest{SweepSpec: client.SweepSpec{
		Policies: []string{"equip"}, Mixes: []string{"w1"}, Seeds: []int64{1, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := cli.WaitSweep(ctx, sw.ID, 0)
	if err != nil || sv.State != "done" || len(sv.Cells) == 0 {
		t.Fatalf("sweep = %+v, err %v", sv, err)
	}
	page, err := cli.Sweeps(ctx, client.ListOptions{})
	if err != nil || len(page.Sweeps) != 1 {
		t.Fatalf("sweeps page = %+v, err %v", page, err)
	}

	met, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met["pdpad_runs_finished_total"] < 5 {
		t.Errorf("runs_finished_total = %v, want >= 5", met["pdpad_runs_finished_total"])
	}
}

func TestNotFoundIsAPIError(t *testing.T) {
	cli, _ := newDaemon(t, runqueue.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := cli.Run(ctx, "run-999999")
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusNotFound || apiErr.Code != wire.CodeNotFound {
		t.Fatalf("err = %v, want 404 %s", err, wire.CodeNotFound)
	}
}

// TestRetriesShed: the client retries 429 sheds for the advertised pause
// and succeeds once capacity returns.
func TestRetriesShed(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			server.WriteRetryError(w, http.StatusTooManyRequests, wire.CodeOverloaded,
				fmt.Errorf("shed"), 1)
			return
		}
		server.WriteJSON(w, http.StatusAccepted, client.SubmitResult{ID: "run-000001", State: "queued"})
	}))
	defer ts.Close()
	cli := client.New(ts.URL, client.WithRetries(3), client.WithRetryWaitCap(time.Millisecond))
	defer cli.CloseIdleConnections()
	sub, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "run-000001" || calls.Load() != 3 {
		t.Fatalf("sub = %+v after %d calls", sub, calls.Load())
	}
}

// TestRetryBudgetExhausted: with no retries, a shed surfaces as *APIError
// carrying the hint.
func TestRetryBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteRetryError(w, http.StatusTooManyRequests, wire.CodeOverloaded, fmt.Errorf("shed"), 7)
	}))
	defer ts.Close()
	cli := client.New(ts.URL)
	defer cli.CloseIdleConnections()
	_, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
	apiErr, ok := err.(*client.APIError)
	if !ok || !apiErr.IsShed() || apiErr.RetryAfterSeconds != 7 {
		t.Fatalf("err = %v, want shed with hint 7", err)
	}
}

// TestContractErrors: responses outside the v1 contract are typed as
// *ContractError, never silently retried or decoded.
func TestContractErrors(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"garbage 500", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte("not json"))
		}},
		{"429 without retry hint", func(w http.ResponseWriter, r *http.Request) {
			// Envelope advertises a hint the header contradicts.
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "99")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(wire.ErrorResponse{Error: wire.Error{
				Code: wire.CodeOverloaded, Message: "shed", RetryAfterSeconds: 1,
			}})
		}},
		{"undecodable 200", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("not json"))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			cli := client.New(ts.URL, client.WithRetries(5), client.WithRetryWaitCap(time.Millisecond))
			defer cli.CloseIdleConnections()
			_, err := cli.SubmitRun(context.Background(), client.SubmitRunRequest{})
			var contract *client.ContractError
			if !errors.As(err, &contract) {
				t.Fatalf("err = %v (%T), want *ContractError", err, err)
			}
		})
	}
}

// Package server is the one implementation of the pdpad v1 HTTP surface,
// served over a Backend: a runqueue pool for the standalone and node roles,
// the fleet coordinator for the coordinator role. Endpoints:
//
//	POST   /v1/runs             submit a WorkloadSpec+Options payload
//	GET    /v1/runs             list runs, newest first (limit=, cursor=, state=)
//	POST   /v1/runs/reconcile   bulk-report authoritative run states (fleet recovery)
//	GET    /v1/runs/{id}        status, and the full result once done
//	DELETE /v1/runs/{id}        cancel a queued or running simulation
//	GET    /v1/runs/{id}/events server-sent lifecycle events
//	GET    /v1/runs/{id}/trace  the run's recorded decision trace (JSON)
//	GET    /v1/version          build info, API revision, and role
//	POST   /v1/sweeps           submit a policy × mix × load × seed grid
//	GET    /v1/sweeps           list sweeps, newest first (limit=, cursor=, state=)
//	GET    /v1/sweeps/{id}      progress, and per-cell aggregates once done
//	DELETE /v1/sweeps/{id}      cancel a sweep's remaining members
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus text exposition
//
// The list endpoints paginate with an opaque cursor: pass limit= (default
// 100, capped at 1000) and follow the response's next_cursor until it is
// absent; state= filters to one lifecycle state. Every non-2xx response
// carries the unified error envelope (internal/wire); every JSON shape is
// defined once in internal/wire.
//
// A sweep expands into member runs that share the pool's PDPA-style
// admission, result cache, and singleflight index with individually
// submitted runs; each member's result uses the same Outcome JSON schema as
// GET /v1/runs/{id}.
//
// Everything is stdlib net/http; the package has no third-party
// dependencies.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pdpasim/internal/faults"
	"pdpasim/internal/obs"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/wire"
)

// maxRequestBody bounds submission payloads; larger bodies get 413. A full
// sweep grid serializes well under a megabyte.
const maxRequestBody = 1 << 20

// Backend is what the v1 handlers serve: a *runqueue.Pool on a standalone
// daemon or a fleet node, a *fleet.Coordinator on a coordinator. Methods
// whose shapes the pool already had keep its signatures, context-free; the
// run-view methods take the request's context and speak wire types,
// because a coordinator relays its nodes' views verbatim. Errors that are a *wire.Error are answered as they are; the
// pool's sentinel errors map to their envelope codes; anything else is a
// 400.
type Backend interface {
	Submit(spec runqueue.Spec, deadline time.Duration) (runqueue.SubmitResult, error)
	// RunView includes the result; RunViews (newest first) and CancelRun
	// leave it out.
	RunView(ctx context.Context, id string) (wire.RunView, error)
	RunViews(ctx context.Context) []wire.RunView
	CancelRun(ctx context.Context, id string) (wire.RunView, error)
	// FollowRun streams the run's lifecycle to emit until the terminal
	// state, emit returning false, or ctx ending. It emits nothing when it
	// returns an error.
	FollowRun(ctx context.Context, id string, emit func(wire.Event) bool) error
	Trace(ctx context.Context, id string) ([]byte, error)

	SubmitSweep(spec runqueue.SweepSpec, deadline time.Duration) (runqueue.SweepSubmitResult, error)
	GetSweep(id string) (runqueue.SweepStatus, error)
	Sweeps() []runqueue.SweepStatus
	CancelSweep(id string) (runqueue.SweepStatus, error)

	Health() wire.Health
	Metrics() *obs.Registry
}

// Server routes HTTP traffic to a Backend. Create with New; it implements
// http.Handler.
type Server struct {
	b       Backend
	mux     *http.ServeMux
	started time.Time
	role    string

	faults    *faults.Injector
	recovered *obs.Counter
}

// Option customizes a Server.
type Option func(*Server)

// WithFaults installs a fault injector evaluated at the top of every request
// — chaos-test tooling. The default nil injector is a no-op.
func WithFaults(inj *faults.Injector) Option {
	return func(s *Server) { s.faults = inj }
}

// New returns a server for b.
func New(b Backend, opts ...Option) *Server {
	s := &Server{b: b, mux: http.NewServeMux(), started: time.Now(), role: RoleStandalone}
	for _, o := range opts {
		o(s)
	}
	// The "http" series of the family whose "worker" series the pool owns.
	s.recovered = b.Metrics().LabeledCounter("pdpad_recovered_panics_total",
		"Panics recovered without taking the daemon down, by origin.", "where", "http")
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("POST /v1/runs/reconcile", s.handleReconcile)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// HandleFunc mounts an extra route behind the same panic recovery and fault
// injection as the v1 routes; the fleet coordinator adds its node plane
// this way.
func (s *Server) HandleFunc(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// ServeHTTP implements http.Handler. Every request passes through panic
// recovery — a handler bug answers 500 and increments the recovered-panics
// counter instead of killing the daemon — and, when a fault injector is
// installed, an injection point that can fail the request with 503.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, compared by identity
			panic(rec) // deliberate connection abort, not a bug
		}
		s.recovered.Inc()
		// Best-effort: if the handler already wrote a header this fails
		// silently, but the connection still closes with a broken response.
		WriteError(w, http.StatusInternalServerError, wire.CodeInternal, fmt.Errorf("internal error: %v", rec))
	}()
	if err := s.faults.Hit(r.Context(), faults.SiteHTTPRequest); err != nil {
		WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, fmt.Errorf("injected fault: %w", err))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// DecodeBody decodes a JSON request body into v, capped at maxRequestBody
// with unknown fields rejected. The error it writes distinguishes oversized
// payloads (413) from malformed ones (400).
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, wire.CodePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// deadlineOf validates and converts a request's deadline_s, answering 400
// for a negative one.
func deadlineOf(w http.ResponseWriter, seconds float64) (time.Duration, bool) {
	if seconds < 0 {
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, fmt.Errorf("negative deadline_s %v", seconds))
		return 0, false
	}
	return time.Duration(seconds * float64(time.Second)), true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.SubmitRunRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	deadline, ok := deadlineOf(w, req.DeadlineS)
	if !ok {
		return
	}
	res, err := s.b.Submit(runqueue.Spec{Workload: req.Workload, Options: req.Options}, deadline)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if res.CacheHit {
		status = http.StatusOK
	}
	WriteJSON(w, status, wire.SubmitResult{
		ID:       res.ID,
		State:    string(res.State),
		CacheHit: res.CacheHit,
		Deduped:  res.Deduped,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	p, err := parsePageParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, err)
		return
	}
	page, next := Paginate(s.b.RunViews(r.Context()), p,
		func(v wire.RunView) string { return v.ID },
		func(v wire.RunView) bool { return p.State == "" || v.State == p.State })
	WriteJSON(w, http.StatusOK, wire.RunPage{Runs: page, NextCursor: next})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.RunView(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.CancelRun(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

// handleEvents streams the run's lifecycle as server-sent events: one
// `event: state` message per transition, ending after the terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, wire.CodeInternal, errors.New("streaming unsupported"))
		return
	}
	streaming := false
	err := s.b.FollowRun(r.Context(), r.PathValue("id"), func(ev wire.Event) bool {
		if !streaming {
			streaming = true
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
		flusher.Flush()
		return !wire.Terminal(ev.State)
	})
	if err != nil && !streaming {
		writeError(w, err)
	}
}

// handleTrace serves the run's recorded decision trace: the ordered event
// stream explaining every scheduling decision ({"events": [...], "dropped":
// n}, the pdpasim.DecisionTrace JSON schema).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw, err := s.b.Trace(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

// handleReconcile bulk-reports run states for a recovering coordinator: a
// full view (result included) for every asked-about run the backend has a
// record of, and the IDs it knows nothing about — which the coordinator
// requeues elsewhere. The node is the authority: a run it finished while
// the coordinator was down comes back terminal with its exact result
// bytes, which is what keeps resumed fleet sweeps byte-identical.
func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req wire.ReconcileRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	var resp wire.ReconcileResult
	for _, id := range req.IDs {
		v, err := s.b.RunView(r.Context(), id)
		if err != nil {
			resp.Missing = append(resp.Missing, id)
			continue
		}
		resp.Runs = append(resp.Runs, v)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// sweepView renders a sweep status; the member IDs and the per-cell
// aggregates ride along only with includeDetail.
func sweepView(st runqueue.SweepStatus, includeDetail bool) wire.SweepView {
	v := wire.SweepView{
		ID:          st.ID,
		State:       string(st.State),
		Done:        st.Done,
		Total:       st.Total,
		SubmittedAt: st.Submitted,
		Spec:        wire.SweepSpec(st.Spec),
		Errors:      st.Errors,
	}
	if includeDetail {
		v.RunIDs = st.RunIDs
		if len(st.Cells) > 0 {
			v.Cells, _ = json.Marshal(st.Cells)
		}
	}
	return v
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req wire.SubmitSweepRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	deadline, ok := deadlineOf(w, req.DeadlineS)
	if !ok {
		return
	}
	res, err := s.b.SubmitSweep(runqueue.SweepSpec(req.SweepSpec), deadline)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, wire.SweepSubmitResult{
		ID:        res.ID,
		RunIDs:    res.RunIDs,
		CacheHits: res.CacheHits,
		Deduped:   res.Deduped,
	})
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	p, err := parsePageParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, err)
		return
	}
	page, next := Paginate(s.b.Sweeps(), p,
		func(st runqueue.SweepStatus) string { return st.ID },
		func(st runqueue.SweepStatus) bool { return p.State == "" || string(st.State) == p.State })
	views := make([]wire.SweepView, len(page))
	for i, st := range page {
		views[i] = sweepView(st, false)
	}
	WriteJSON(w, http.StatusOK, wire.SweepPage{Sweeps: views, NextCursor: next})
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	st, err := s.b.GetSweep(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, sweepView(st, true))
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	st, err := s.b.CancelSweep(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, sweepView(st, false))
}

// handleHealth answers the liveness probe. The body is a map so its keys
// render sorted; the coordinator role adds the node counts.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.b.Health()
	body := map[string]any{
		"status":   h.Status,
		"uptime_s": time.Since(s.started).Seconds(),
		"queue":    h.Queue,
		"inflight": h.Inflight,
	}
	if s.role == RoleCoordinator {
		body["nodes"] = h.Nodes
		body["healthy"] = h.Healthy
	}
	WriteJSON(w, http.StatusOK, body)
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    string  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int, req string, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ms(at), End: -1})
	return id
}

func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.ms(at)
	t.mu.Unlock()
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	id := t.begin(name, parent, req, start)
	t.end(id, end)
	return id
}

// selfTimes returns, per span name and request, the self time (ms): the
// summed durations of the request's spans of that name, minus the parts
// their child spans cover. Spans outside any request are skipped.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 || s.Req == "" {
			continue
		}
		if out[s.Name] == nil {
			out[s.Name] = map[string]float64{}
		}
		out[s.Name][s.Req] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := math.Max(iv[0], cur), math.Min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans, the traced run's end-to-end numbers and its
// per-layer metrics as one JSON document.
func (t *tracer) write(path, workload string, seed int64, res *result) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		EndToEnd map[string]float64 `json:"end_to_end_traced"`
		Layer    map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{workload, seed, res.e2e, res.layer, t.spans}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- request context ------------------------------------------------------

type spanKey struct{}

// spanRef names the span (and request) an outgoing call belongs to.
type spanRef struct {
	id  int
	req string
}

func withSpan(ctx context.Context, id int, req string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// --- per-route timing -----------------------------------------------------

// routeStats collects durations (ms), response sizes and status classes per
// route at one boundary.
type routeStats struct {
	mu     sync.Mutex
	ms     map[string][]float64
	bytes  map[string]int64
	status map[string]int
}

func newRouteStats() *routeStats {
	return &routeStats{ms: map[string][]float64{}, bytes: map[string]int64{}, status: map[string]int{}}
}

func (s *routeStats) observe(route string, d time.Duration, status int, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ms[route] = append(s.ms[route], float64(d)/1e6)
	s.bytes[route] += n
	switch {
	case status == http.StatusTooManyRequests:
		s.status["429"]++
	case status >= 500:
		s.status["5xx"]++
	case status >= 400:
		s.status["4xx"]++
	case status >= 200 && status < 300:
		s.status["2xx"]++
	}
}

// reset forgets everything observed so far (set-up traffic).
func (s *routeStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ms, s.bytes, s.status = map[string][]float64{}, map[string]int64{}, map[string]int{}
}

func (s *routeStats) durations(route string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms[route]...)
}

func (s *routeStats) count(route string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms[route])
}

// routeOf names a v1 request by method and path pattern.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "runs" && method == http.MethodPost:
		return "post_runs"
	case len(parts) == 3 && parts[1] == "runs" && method == http.MethodGet:
		return "get_run"
	case len(parts) == 2 && parts[1] == "sweeps" && method == http.MethodPost:
		return "post_sweeps"
	case len(parts) == 3 && parts[1] == "sweeps" && method == http.MethodGet:
		return "get_sweep"
	case len(parts) == 4 && parts[1] == "nodes" && parts[3] == "heartbeat":
		return "heartbeat"
	}
	return "other"
}

// timedHandler wraps a layer's http.Handler: it times every request, counts
// statuses and response bytes, and records a span linked to the caller's.
type timedHandler struct {
	next  http.Handler
	layer string
	tr    *tracer
	stats *routeStats
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	req := r.Header.Get(hdrReq)
	route := routeOf(r.Method, r.URL.Path)
	start := time.Now()
	id := h.tr.begin(h.layer+"."+route, parent, req, start)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), id, req)))
	end := time.Now()
	h.tr.end(id, end)
	h.stats.observe(route, end.Sub(start), cw.status, cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// timedTransport wraps an http.RoundTripper: it forwards the caller's span
// in headers, and times each call from send until the response body is
// closed, counting the body's bytes.
type timedTransport struct {
	base  http.RoundTripper
	layer string
	tr    *tracer
	stats *routeStats
	// onSend, when set, observes each request's send time (heartbeat gaps).
	onSend func(route string, at time.Time)
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := spanOf(r.Context())
	route := routeOf(r.Method, r.URL.Path)
	start := time.Now()
	if t.onSend != nil {
		t.onSend(route, start)
	}
	id := t.tr.begin(t.layer+"."+route, ref.id, ref.req, start)
	if id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(hdrSpan, strconv.Itoa(id))
		r.Header.Set(hdrReq, ref.req)
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.end(id, time.Now())
		t.stats.observe(route, time.Since(start), 599, 0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		end := time.Now()
		t.tr.end(id, end)
		t.stats.observe(route, end.Sub(start), resp.StatusCode, n)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// --- statistics -------------------------------------------------------------

// percentile interpolates linearly between closest ranks; q is in [0, 100].
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func maxOf(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		m = math.Max(m, v)
	}
	return m
}

func msSince(start, end time.Time) float64 { return float64(end.Sub(start)) / 1e6 }

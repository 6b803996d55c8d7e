package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/version"
)

// NewHandler builds the service's HTTP API:
//
//	POST   /v1/sessions              create a session      {"n": 3, "id": "optional"}
//	GET    /v1/sessions              list sessions
//	POST   /v1/sessions/{id}/events  ingest events         202, or 429 + Retry-After
//	GET    /v1/sessions/{id}/verdict live RDT verdict      ?flush=1&violations=N (N <= MaxViolations)
//	GET    /v1/sessions/{id}/explain violation witnesses   ?violations=N&dot=1 (N <= MaxViolations)
//	GET    /v1/sessions/{id}/timeline Chrome trace-event timeline of the pattern
//	GET    /v1/sessions/{id}/line    recovery-line query
//	GET    /v1/sessions/{id}/trace   pattern-so-far dump   (rdtcheck - compatible)
//	POST   /v1/sessions/{id}/seal    finalize the session
//	DELETE /v1/sessions/{id}         evict the session
//	GET    /healthz                  liveness (503 while draining)
//
// When the service has a Registry/Tracer, /metrics and /debug/events
// are mounted too, so one listener serves both the API and the
// introspection endpoints.
func NewHandler(svc *Service) http.Handler {
	a := &api{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", a.timed("create", a.createSession))
	mux.HandleFunc("GET /v1/sessions", a.timed("list", a.listSessions))
	mux.HandleFunc("POST /v1/sessions/{id}/events", a.timed("ingest", a.ingest))
	mux.HandleFunc("GET /v1/sessions/{id}/verdict", a.timed("verdict", a.verdict))
	mux.HandleFunc("GET /v1/sessions/{id}/explain", a.timed("explain", a.explain))
	mux.HandleFunc("GET /v1/sessions/{id}/timeline", a.timed("timeline", a.timeline))
	mux.HandleFunc("GET /v1/sessions/{id}/line", a.timed("line", a.line))
	mux.HandleFunc("GET /v1/sessions/{id}/trace", a.timed("trace", a.trace))
	mux.HandleFunc("POST /v1/sessions/{id}/seal", a.timed("seal", a.seal))
	mux.HandleFunc("DELETE /v1/sessions/{id}", a.timed("delete", a.deleteSession))
	mux.HandleFunc("GET /healthz", a.timed("healthz", a.healthz))
	if svc.cfg.Registry != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(svc.cfg.Registry))
	}
	if svc.cfg.Tracer != nil {
		mux.Handle("GET /debug/events", obs.EventsHandler(svc.cfg.Tracer))
	}
	return mux
}

type api struct {
	svc *Service
}

// timed wraps a handler with the per-endpoint latency histogram.
func (a *api) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := a.svc.cfg.Registry.Histogram(
		"rdt_service_request_seconds", obs.LatencyBuckets, "endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// writeSessionError maps session/service sentinel errors to statuses.
func writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBackpressure):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrSealed), errors.Is(err, ErrFailed):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrDegraded):
		writeError(w, http.StatusInsufficientStorage, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusGone, err)
	case errors.Is(err, ErrNoSession):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrSessionExists):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (a *api) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	sess, err := a.svc.Session(r.PathValue("id"))
	if err != nil {
		a.sessionError(w, r, err)
		return nil, false
	}
	return sess, true
}

// sessionError maps a lookup/ingest error, turning a shard move into a
// 307 at the owner (same path and query; Go clients re-send the body
// automatically, curl needs -L).
func (a *api) sessionError(w http.ResponseWriter, r *http.Request, err error) {
	var mv *MovedError
	if errors.As(err, &mv) && mv.HTTP != "" {
		u := *r.URL
		u.Scheme = "http"
		u.Host = mv.HTTP
		w.Header().Set("X-Rdt-Owner", mv.Owner)
		http.Redirect(w, r, u.String(), http.StatusTemporaryRedirect)
		return
	}
	writeSessionError(w, err)
}

type createRequest struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

type createResponse struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

func (a *api) createSession(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	body := http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	sess, err := a.svc.CreateSession(req.ID, req.N)
	if err != nil {
		var mv *MovedError
		switch {
		case errors.As(err, &mv):
			a.sessionError(w, r, err)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrSessionExists):
			writeSessionError(w, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, createResponse{ID: sess.ID, N: sess.N})
}

func (a *api) listSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sessions []Info `json:"sessions"`
	}{Sessions: a.svc.Sessions()})
}

type ingestResponse struct {
	Enqueued int `json:"enqueued"`
}

func (a *api) ingest(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	// A declared oversize is refused before reading a byte; a lying
	// Content-Length still hits MaxBytesReader below.
	if r.ContentLength > DefaultMaxBody {
		a.svc.reject(reasonInvalid, 1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body %d bytes exceeds limit %d", r.ContentLength, DefaultMaxBody))
		return
	}
	// The decode builds the batch's record, every event shape-checked, so
	// admission only enqueues it.
	rec, err := decodeBatch(http.MaxBytesReader(w, r.Body, DefaultMaxBody), DefaultMaxBatch)
	if err != nil {
		a.svc.reject(reasonInvalid, 1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := sess.enqueue(batch{record: rec}); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Enqueued: rec.count})
}

func (a *api) verdict(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	if q.Get("flush") == "1" {
		// The barrier orders the verdict after every acknowledged batch;
		// its own failure (a poisoned prefix or a degraded store) still
		// yields a verdict — the state and error ride inside it — so only
		// transport-level errors abort the request.
		if err := sess.Flush(r.Context()); err != nil && !errors.Is(err, ErrFailed) && !errors.Is(err, ErrDegraded) {
			writeSessionError(w, err)
			return
		}
	}
	maxViolations, ok := violationsParam(w, q)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.Verdict(maxViolations))
}

// violationsParam parses the optional ?violations= cap on the listed
// violations. Absent (or not positive) means the service default;
// anything but a decimal integer, or one above MaxViolations, is
// answered with 400 and ok false.
func violationsParam(w http.ResponseWriter, q url.Values) (n int, ok bool) {
	v := q.Get("violations")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err == nil && n > MaxViolations {
		err = fmt.Errorf("%d is above the maximum %d", n, MaxViolations)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad violations: %w", err))
		return 0, false
	}
	return n, true
}

// witnessInfo renders one violation witness on the wire: the convicted
// pair, the minimal zigzag chain hop by hop, and a one-line rendering.
type witnessInfo struct {
	Violation ViolationInfo `json:"violation"`
	Hops      []rgraph.Hop  `json:"hops"`
	NonCausal int           `json:"non_causal"`
	String    string        `json:"string"`
}

type explainResponse struct {
	Session   string        `json:"session"`
	RDT       bool          `json:"rdt"`
	Witnesses []witnessInfo `json:"witnesses"`
	// DOT, present with ?dot=1, is the space-time diagram with the first
	// witness highlighted.
	DOT string `json:"dot,omitempty"`
}

func (a *api) explain(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	maxViolations, ok := violationsParam(w, q)
	if !ok {
		return
	}
	p, witnesses, err := sess.Explain(maxViolations)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := explainResponse{
		Session:   sess.ID,
		RDT:       len(witnesses) == 0,
		Witnesses: make([]witnessInfo, 0, len(witnesses)),
	}
	for _, wit := range witnesses {
		resp.Witnesses = append(resp.Witnesses, witnessInfo{
			Violation: violationInfo(wit.Violation),
			Hops:      wit.Hops,
			NonCausal: wit.NonCausal,
			String:    wit.String(),
		})
	}
	if q.Get("dot") == "1" && len(witnesses) > 0 {
		first := witnesses[0]
		resp.DOT = p.DOTWitness(first.MessageIDs(),
			first.Violation.From, first.Violation.To)
	}
	writeJSON(w, http.StatusOK, resp)
}

// timeline serves the session's pattern-so-far as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto): sends, deliveries and
// checkpoints on one logical-clock track per process.
func (a *api) timeline(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	p, lost, err := sess.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Rdt-Lost-Messages", fmt.Sprint(len(lost)))
	_ = trace.WriteTimeline(w, p)
}

type lineResponse struct {
	Line          []int `json:"line"`
	Bounds        []int `json:"bounds"`
	Depth         []int `json:"depth"`
	TotalRollback int   `json:"total_rollback"`
}

func (a *api) line(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	plan, err := sess.Line()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, lineResponse{
		Line:          plan.Line,
		Bounds:        plan.Bounds,
		Depth:         plan.Depth,
		TotalRollback: plan.TotalRollback(),
	})
}

func (a *api) trace(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	p, lost, err := sess.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Rdt-Lost-Messages", fmt.Sprint(len(lost)))
	_ = trace.Save(w, p)
}

func (a *api) seal(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	// A failed prefix still seals: the client gets the verdict of what
	// was applied, with the failure reported in the verdict state.
	if err := sess.Seal(r.Context()); err != nil && !errors.Is(err, ErrFailed) {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Verdict(0))
}

func (a *api) deleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Evict bypasses Session(), so the ownership gate runs explicitly: a
	// moved session's DELETE belongs to its owner.
	if err := a.svc.CheckGate(id); err != nil {
		a.sessionError(w, r, err)
		return
	}
	if !a.svc.Evict(id, "explicit") {
		writeSessionError(w, fmt.Errorf("%w: %q", ErrNoSession, id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *api) healthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if a.svc.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status           string `json:"status"`
		Sessions         int    `json:"sessions"`
		DegradedSessions int64  `json:"degraded_sessions"`
		Durable          bool   `json:"durable"`
		Version          string `json:"version"`
		Commit           string `json:"commit"`
		Shard            any    `json:"shard,omitempty"`
	}{
		Status: status, Sessions: a.svc.SessionCount(),
		DegradedSessions: a.svc.DegradedCount(), Durable: a.svc.durable(),
		Version: version.Version, Commit: version.Commit,
		Shard: a.svc.ShardInfo(),
	})
}

// Server is the service bound to a listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the HTTP API on addr (":0" for an ephemeral port).
func Serve(addr string, svc *Service) (*Server, error) {
	return ServeHandler(addr, NewHandler(svc))
}

// ServeHandler starts an HTTP server on addr with a caller-composed
// handler — shard mode mounts the cluster endpoints next to the API.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains the HTTP server: the listener closes immediately,
// in-flight requests run to completion or the context deadline.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }

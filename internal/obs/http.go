package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per metric name,
// histograms as cumulative _bucket/_sum/_count series. Safe on a nil
// registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, m := range s.Metrics {
		if m.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
				return err
			}
			lastName = m.Name
		}
		var err error
		switch m.Type {
		case TypeCounter, TypeGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.Name, promLabels(m.Labels), m.Value)
		case TypeHistogram:
			err = writePromHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, m Metric) error {
	cum := int64(0)
	for i, c := range m.Counts {
		cum += c
		le := "+Inf"
		if i < len(m.Bounds) {
			le = formatFloat(m.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.Name, promLabels(append(append([]string(nil), m.Labels...), "le", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, promLabels(m.Labels), formatFloat(m.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, promLabels(m.Labels), m.Count)
	return err
}

// promLabels renders alternating key, value pairs as {k="v",...}, or
// the empty string when there are none.
func promLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus expects (shortest
// representation, no exponent for common values).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Server exposes a Registry and a Tracer over HTTP:
//
//	/metrics         — Prometheus text exposition of the registry
//	/debug/events    — JSON tail of the tracer ring (?n=100)
//	/debug/vars      — the standard expvar dump (cmdline, memstats)
//	/debug/pprof/    — live profiling (when Serve is asked for it)
//
// Either the registry or the tracer may be nil; the corresponding
// endpoint then serves empty output.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	stop func()
}

// Serve starts an HTTP introspection server on addr (e.g. ":9090" or
// ":0" for an ephemeral port). With profiling, it also mounts the
// net/http/pprof handlers under /debug/pprof/ and samples the runtime
// gauges (StartRuntimeGaugesOn) into reg once a second for the server's
// lifetime.
func Serve(addr string, reg *Registry, tr *Tracer, profiling bool) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/debug/events", EventsHandler(tr))
	mux.Handle("/debug/vars", expvar.Handler())
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}, stop: func() {}}
	if profiling {
		mountPprof(mux)
		s.stop = StartRuntimeGaugesOn(nil, reg, time.Second)
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error {
	s.stop()
	return s.srv.Close()
}

// Shutdown drains the server: the listener closes immediately, requests
// already in flight run to completion or the context deadline, whichever
// comes first. It falls back to an abrupt Close when the context expires
// so the listener never outlives the caller.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
		return fmt.Errorf("obs: shutdown: %w", err)
	}
	return nil
}

// MetricsHandler serves the registry in Prometheus text format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// EventsHandler serves the tracer tail as JSON; ?n= bounds the number
// of events (default 100, <=0 for the full retained ring).
func EventsHandler(tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 100
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad n: %v", err), http.StatusBadRequest)
				return
			}
			n = v
		}
		events := tr.Tail(n)
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Seq    uint64  `json:"seq"`
			Events []Event `json:"events"`
		}{Seq: tr.Seq(), Events: events})
	})
}

package shard

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
)

// RouterConfig configures the cluster front end.
type RouterConfig struct {
	// Members is the initial membership (epoch 1).
	Members []Member
	// VNodes is the virtual-node count per member; 0 means default.
	VNodes int
	// Registry receives the rdt_router_* metrics; may be nil.
	Registry *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Router is the scale-out front end: one stable address clients can
// point at while sessions live across a cluster. It proxies every
// per-session request to the session's owner (no client redirect
// dance needed), mints ids for empty creates so the hash has
// something to route, fans list requests out to every member, and is
// the cluster's membership administrator — adds and removals build a
// new ring epoch and push it to every member, which triggers the
// members' own handoff rebalancing.
//
// Smart clients may bypass the router entirely: every member answers
// 307 (HTTP) or MOVED (stream) for sessions it does not own.
type Router struct {
	client *http.Client
	logf   func(string, ...any)
	vnodes int

	mu   sync.Mutex
	ring *Ring

	// adminMu serializes membership changes end to end, so concurrent
	// admin requests cannot mint the same epoch twice.
	adminMu sync.Mutex

	proxy *httputil.ReverseProxy

	cProxied *obs.Counter
	cFanout  *obs.Counter
	cPushes  *obs.Counter
	gEpoch   *obs.Gauge
}

type targetKey struct{}

// NewRouter builds a router over the initial membership. Call
// Bootstrap to push the initial ring at the members.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := New(1, cfg.VNodes, cfg.Members)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	rt := &Router{
		client: &http.Client{Timeout: peerTimeout},
		logf:   cfg.Logf,
		vnodes: ring.VNodes,
		ring:   ring,

		cProxied: reg.Counter("rdt_router_proxied_total"),
		cFanout:  reg.Counter("rdt_router_fanout_total"),
		cPushes:  reg.Counter("rdt_router_ring_pushes_total"),
		gEpoch:   reg.Gauge("rdt_router_ring_epoch"),
	}
	rt.gEpoch.Set(int64(ring.Epoch))
	rt.proxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(pr.In.Context().Value(targetKey{}).(*url.URL))
			pr.Out.Host = pr.In.Host
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			writeError(w, http.StatusBadGateway, "proxy: %v", err)
		},
	}
	return rt, nil
}

func (rt *Router) logfSafe(format string, args ...any) {
	if rt.logf != nil {
		rt.logf(format, args...)
	}
}

// Ring returns the current ring.
func (rt *Router) Ring() *Ring {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring
}

// Bootstrap pushes the current ring at every member, retrying each
// briefly — members may still be binding their listeners.
func (rt *Router) Bootstrap(ctx context.Context) error {
	ring := rt.Ring()
	var firstErr error
	for _, m := range ring.Members {
		var err error
		for attempt := 0; attempt < 40; attempt++ {
			if err = rt.pushRing(ring, m); err == nil {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("push ring to %s: %w", m.Name, err)
		}
	}
	return firstErr
}

// pushRing POSTs one ring at one member.
func (rt *Router) pushRing(ring *Ring, m Member) error {
	body, err := json.Marshal(ring)
	if err != nil {
		return err
	}
	resp, err := rt.client.Post("http://"+m.HTTP+"/v1/shard/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(respBody))
	}
	rt.cPushes.Inc()
	return nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /v1/shard/ring", rt.getRing)
	mux.HandleFunc("POST /v1/shard/members", rt.postMembers)
	mux.HandleFunc("POST /v1/sessions", rt.createSession)
	mux.HandleFunc("GET /v1/sessions", rt.listSessions)
	mux.HandleFunc("/v1/sessions/{id}", rt.proxySession)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", rt.proxySession)
	if reg != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	}
	return mux
}

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	ring := rt.Ring()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"epoch":   ring.Epoch,
		"members": ring.Names(),
	})
}

func (rt *Router) getRing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Ring())
}

// proxyTo forwards the request to the member owning id.
func (rt *Router) proxyTo(w http.ResponseWriter, r *http.Request, id string) {
	owner := rt.Ring().Owner(id)
	rt.cProxied.Inc()
	target := &url.URL{Scheme: "http", Host: owner.HTTP}
	rt.proxy.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), targetKey{}, target)))
}

func (rt *Router) proxySession(w http.ResponseWriter, r *http.Request) {
	rt.proxyTo(w, r, r.PathValue("id"))
}

// createSession routes a create by its session id, minting one for
// requests that leave the id to the server — the consistent hash
// needs an id before any member can own the session.
func (rt *Router) createSession(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4096))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req struct {
		ID string `json:"id"`
		N  int    `json:"n"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.ID == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			writeError(w, http.StatusInternalServerError, "mint id: %v", err)
			return
		}
		req.ID = "s-" + hex.EncodeToString(buf[:])
		body, _ = json.Marshal(req)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	rt.proxyTo(w, r, req.ID)
}

// listSessions fans out to every member and merges.
func (rt *Router) listSessions(w http.ResponseWriter, r *http.Request) {
	rt.cFanout.Inc()
	ring := rt.Ring()
	merged := struct {
		Sessions []json.RawMessage `json:"sessions"`
	}{Sessions: []json.RawMessage{}}
	for _, m := range ring.Members {
		resp, err := rt.client.Get("http://" + m.HTTP + "/v1/sessions")
		if err != nil {
			writeError(w, http.StatusBadGateway, "list from %s: %v", m.Name, err)
			return
		}
		var one struct {
			Sessions []json.RawMessage `json:"sessions"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&one)
		_ = resp.Body.Close()
		if err != nil {
			writeError(w, http.StatusBadGateway, "list from %s: decode: %v", m.Name, err)
			return
		}
		merged.Sessions = append(merged.Sessions, one.Sessions...)
	}
	writeJSON(w, http.StatusOK, merged)
}

// memberChange is the membership-admin request body.
type memberChange struct {
	Action string `json:"action"` // "add" or "remove"
	Member Member `json:"member"` // full member for add; name alone suffices for remove
}

// postMembers applies one membership change: it builds the next ring
// epoch and pushes it at the union of old and new members — the
// removed member included, since adopting a ring that excludes it is
// exactly how it learns to hand every session off — then installs it
// as the router's routing table. Push failures to the surviving
// members fail the request (routing against a ring the members do not
// hold would strand traffic); a failure to reach a removed member is
// reported but tolerated, that member may simply be dead.
func (rt *Router) postMembers(w http.ResponseWriter, r *http.Request) {
	var req memberChange
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.mu.Lock()
	cur := rt.ring
	rt.mu.Unlock()

	var members []Member
	var departed []Member
	switch req.Action {
	case "add":
		if _, ok := cur.MemberByName(req.Member.Name); ok {
			writeError(w, http.StatusConflict, "member %q already present", req.Member.Name)
			return
		}
		members = append(append([]Member(nil), cur.Members...), req.Member)
	case "remove":
		for _, m := range cur.Members {
			if m.Name == req.Member.Name {
				departed = append(departed, m)
			} else {
				members = append(members, m)
			}
		}
		if len(departed) == 0 {
			writeError(w, http.StatusNotFound, "member %q not in ring", req.Member.Name)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown action %q", req.Action)
		return
	}
	next, err := New(cur.Epoch+1, rt.vnodes, members)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Carry the ownership history: a member that just joined has no
	// displaced rings of its own to walk for pull-on-miss sources.
	next.Prev = ChainCopy(cur, maxRingHistory-1)

	for _, m := range next.Members {
		if err := rt.pushRing(next, m); err != nil {
			writeError(w, http.StatusBadGateway, "push ring to %s: %v", m.Name, err)
			return
		}
	}
	for _, m := range departed {
		if err := rt.pushRing(next, m); err != nil {
			rt.logfSafe("router: ring push to departing member %s failed: %v", m.Name, err)
		}
	}

	rt.mu.Lock()
	// A concurrent change may have advanced the ring; keep the newest.
	if next.Epoch > rt.ring.Epoch {
		rt.ring = next
	}
	rt.mu.Unlock()
	rt.gEpoch.Set(int64(next.Epoch))
	rt.logfSafe("router: ring epoch %d: %s %q (%d members)", next.Epoch, req.Action, req.Member.Name, len(next.Members))
	writeJSON(w, http.StatusOK, next)
}

// OwnerOf resolves a session id to its owner's stream address under
// the current ring — the stream redirect listener's lookup. ok is
// false when the owner advertises no stream wire.
func (rt *Router) OwnerOf(id string) (string, bool) {
	m := rt.Ring().Owner(id)
	return m.Stream, m.Stream != ""
}

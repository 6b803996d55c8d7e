package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/stream"
)

// member is one in-process cluster daemon: a durable service with its
// shard agent, HTTP surface (shard endpoints + session API), and
// stream listener — the same composition cmd/rdtserved wires up.
type member struct {
	name string
	dir  string
	svc  *service.Service
	node *Node
	hsrv *service.Server
	ssrv *stream.Server
}

func startMember(t *testing.T, name, dir string) *member {
	t.Helper()
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{DataDir: dir, Registry: reg})
	if err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	if _, err := svc.Recover(); err != nil {
		t.Fatalf("recover %s: %v", name, err)
	}
	t0 := time.Now()
	logf := func(format string, args ...any) {
		t.Logf("[%s +%5.1fms] "+format, append([]any{name, float64(time.Since(t0).Microseconds()) / 1000}, args...)...)
	}
	node, err := NewNode(NodeConfig{Self: name, Service: svc, Registry: reg, Logf: logf})
	if err != nil {
		t.Fatalf("node %s: %v", name, err)
	}
	mux := http.NewServeMux()
	node.Register(mux)
	mux.Handle("/", service.NewHandler(svc))
	hsrv, err := service.ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatalf("serve %s: %v", name, err)
	}
	ssrv, err := stream.Serve("127.0.0.1:0", stream.Config{Service: svc, Registry: reg})
	if err != nil {
		t.Fatalf("stream serve %s: %v", name, err)
	}
	return &member{name: name, dir: dir, svc: svc, node: node, hsrv: hsrv, ssrv: ssrv}
}

func (m *member) Member() Member {
	return Member{Name: m.name, HTTP: m.hsrv.Addr(), Stream: m.ssrv.Addr()}
}

// stop is a graceful shutdown: listeners down, state drained to disk.
func (m *member) stop(t *testing.T) {
	t.Helper()
	_ = m.ssrv.Close()
	_ = m.hsrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.svc.Drain(ctx); err != nil {
		t.Errorf("drain %s: %v", m.name, err)
	}
}

// kill drops the listeners without draining: the crash case. The
// service's data-dir lock stays held, so a restart must either reuse
// the drained service or run from a copied directory.
func (m *member) kill() {
	_ = m.ssrv.Close()
	_ = m.hsrv.Close()
}

func adoptAll(t *testing.T, r *Ring, ms ...*member) {
	t.Helper()
	for _, m := range ms {
		if _, err := m.node.AdoptRing(r); err != nil {
			t.Fatalf("adopt on %s: %v", m.name, err)
		}
	}
}

// idOwnedBy probes for a session id the ring assigns to the named member.
func idOwnedBy(t *testing.T, r *Ring, owner, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if r.Owner(id).Name == owner {
			return id
		}
	}
	t.Fatalf("no id owned by %s in 10000 probes", owner)
	return ""
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp, respBody
}

// TestClusterHTTPRedirect exercises the smart-client path: a member
// answers 307 with the owner's address for a session it does not own.
func TestClusterHTTPRedirect(t *testing.T) {
	a := startMember(t, "a", t.TempDir())
	defer a.stop(t)
	b := startMember(t, "b", t.TempDir())
	defer b.stop(t)
	ring, err := New(1, 0, []Member{a.Member(), b.Member()})
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, ring, a, b)

	id := idOwnedBy(t, ring, "a", "redir")
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	// Create at the wrong member: 307 at the owner.
	resp, _ := postJSON(t, noFollow, "http://"+b.hsrv.Addr()+"/v1/sessions",
		map[string]any{"id": id, "n": 2})
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("create at non-owner: got %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Rdt-Owner"); got != "a" {
		t.Fatalf("X-Rdt-Owner = %q, want %q", got, "a")
	}
	if loc := resp.Header.Get("Location"); !bytes.Contains([]byte(loc), []byte(a.hsrv.Addr())) {
		t.Fatalf("Location %q does not point at owner %s", loc, a.hsrv.Addr())
	}

	// A redirect-following client lands on the owner transparently.
	resp, body := postJSON(t, http.DefaultClient, "http://"+b.hsrv.Addr()+"/v1/sessions",
		map[string]any{"id": id, "n": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via redirect: got %d: %s", resp.StatusCode, body)
	}
	if !a.svc.HasLocal(id) {
		t.Fatalf("session %s did not land on owner a", id)
	}
}

// TestClusterRebalanceParity is the subsystem's ground truth: a router
// fronts three daemons, one member leaves and another joins mid-ingest,
// and afterwards every session's verdict — and the rgraph batch checker
// over the reference pattern — is bit-identical to an uninterrupted
// single-service run of the same events. Equal events_applied across
// the handoffs is the zero-lost, zero-duplicated proof.
func TestClusterRebalanceParity(t *testing.T) {
	a := startMember(t, "a", t.TempDir())
	defer a.stop(t)
	b := startMember(t, "b", t.TempDir())
	defer b.stop(t)
	c := startMember(t, "c", t.TempDir())
	defer c.stop(t)
	d := startMember(t, "d", t.TempDir()) // joins mid-run
	defer d.stop(t)

	rt, err := NewRouter(RouterConfig{
		Members:  []Member{a.Member(), b.Member(), c.Member()},
		Registry: obs.NewRegistry(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler(nil))
	defer front.Close()

	const (
		perMember = 3
		procs     = 3
		batchSize = 25
		batches   = 8 // half before the membership change, half after
	)
	ingest := func(id string, events []service.Event) {
		t.Helper()
		resp, body := postJSON(t, http.DefaultClient, front.URL+"/v1/sessions/"+id+"/events", events)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: got %d: %s", id, resp.StatusCode, body)
		}
	}
	gen := func(i int) *stream.Traffic {
		tr, err := stream.NewTraffic("random", procs, int64(7000+i))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Probe ids so every initial member — c especially, whose departure
	// must trigger handoffs — owns some sessions.
	var ids []string
	for _, owner := range []string{"a", "b", "c"} {
		for k := 0; k < perMember; k++ {
			ids = append(ids, idOwnedBy(t, rt.Ring(), owner, fmt.Sprintf("sess-%s%d", owner, k)))
		}
	}
	sessions := len(ids)
	gens := make([]*stream.Traffic, sessions)
	for i := range ids {
		gens[i] = gen(i)
		resp, body := postJSON(t, http.DefaultClient, front.URL+"/v1/sessions",
			map[string]any{"id": ids[i], "n": procs})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: got %d: %s", ids[i], resp.StatusCode, body)
		}
	}

	// The reference: one uninterrupted in-memory service fed the same
	// generators (re-seeded below via allEvents).
	allEvents := make([][]service.Event, sessions)

	for phase := 0; phase < 2; phase++ {
		for round := 0; round < batches/2; round++ {
			for i, id := range ids {
				batch := gens[i].Next(nil, batchSize)
				allEvents[i] = append(allEvents[i], batch...)
				ingest(id, batch)
			}
		}
		if phase == 0 {
			// Mid-ingest: c leaves, d joins.
			resp, body := postJSON(t, http.DefaultClient, front.URL+"/v1/shard/members",
				memberChange{Action: "remove", Member: Member{Name: "c"}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("remove c: got %d: %s", resp.StatusCode, body)
			}
			resp, body = postJSON(t, http.DefaultClient, front.URL+"/v1/shard/members",
				memberChange{Action: "add", Member: d.Member()})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("add d: got %d: %s", resp.StatusCode, body)
			}
		}
	}
	for _, m := range []*member{a, b, c, d} {
		m.node.WaitRebalance()
	}

	// The departed member holds nothing.
	if left, err := c.svc.SessionsOnDisk(); err != nil || len(left) != 0 {
		t.Fatalf("departed member c still holds sessions %v (err %v)", left, err)
	}
	if ring := rt.Ring(); ring.Epoch != 3 || len(ring.Members) != 3 {
		t.Fatalf("final ring: epoch %d with %d members, want epoch 3 with 3", ring.Epoch, len(ring.Members))
	}

	ref, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		_ = ref.Drain(dctx)
	}()
	byName := map[string]*member{"a": a, "b": b, "d": d}
	for i, id := range ids {
		// Seal through the router, then read the verdict through it too.
		resp, body := postJSON(t, http.DefaultClient, front.URL+"/v1/sessions/"+id+"/seal", struct{}{})
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seal %s: got %d: %s", id, resp.StatusCode, body)
		}
		gresp, err := http.Get(front.URL + "/v1/sessions/" + id + "/verdict?flush=1")
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := io.ReadAll(gresp.Body)
		_ = gresp.Body.Close()
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("verdict %s: got %d: %s", id, gresp.StatusCode, gotJSON)
		}

		refSess, err := ref.CreateSession(id, procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := refSess.Enqueue(allEvents[i]); err != nil {
			t.Fatal(err)
		}
		if err := refSess.Seal(ctx); err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(refSess.Verdict(0))
		if err != nil {
			t.Fatal(err)
		}
		var got, want service.Verdict
		if err := json.Unmarshal(gotJSON, &got); err != nil {
			t.Fatalf("decode cluster verdict %s: %v", id, err)
		}
		if err := json.Unmarshal(wantJSON, &want); err != nil {
			t.Fatal(err)
		}
		// InFlight counts queued batches and may differ transiently; the
		// flush barrier should have zeroed both, so compare everything.
		gotNorm, _ := json.Marshal(got)
		wantNorm, _ := json.Marshal(want)
		if !bytes.Equal(gotNorm, wantNorm) {
			t.Errorf("session %s: cluster verdict diverged after rebalance\n got: %s\nwant: %s",
				id, gotNorm, wantNorm)
		}

		// Batch checker over the reference pattern agrees with the verdict.
		p, _, err := refSess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rgraph.CheckRDT(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RDT != got.RDT || rep.RPathPairs != got.RPathPairs || rep.TrackablePairs != got.TrackablePairs {
			t.Errorf("session %s: verdict (rdt=%v rpaths=%d trackable=%d) disagrees with batch CheckRDT (rdt=%v rpaths=%d trackable=%d)",
				id, got.RDT, got.RPathPairs, got.TrackablePairs, rep.RDT, rep.RPathPairs, rep.TrackablePairs)
		}

		// The session lives exactly on its ring owner.
		owner := rt.Ring().Owner(id).Name
		m, ok := byName[owner]
		if !ok {
			t.Fatalf("session %s owned by departed/unknown member %q", id, owner)
		}
		if !m.svc.HasLocal(id) {
			t.Errorf("session %s not on its owner %s", id, owner)
		}
	}

	// Handoffs actually happened: c pushed its sessions out, and the
	// pull/push counters on the survivors saw them arrive.
	if c.node.cOut.Value() == 0 {
		t.Error("departed member c recorded no outbound handoffs")
	}
	in := a.node.cIn.Value() + b.node.cIn.Value() + d.node.cIn.Value()
	if in == 0 {
		t.Error("no member recorded an inbound handoff")
	}
}

// TestClusterStreamMoved drives the binary wire at the wrong member and
// lets the pool follow the MOVED redirect to the owner.
func TestClusterStreamMoved(t *testing.T) {
	a := startMember(t, "a", t.TempDir())
	defer a.stop(t)
	b := startMember(t, "b", t.TempDir())
	defer b.stop(t)
	ring, err := New(1, 0, []Member{a.Member(), b.Member()})
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, ring, a, b)

	id := idOwnedBy(t, ring, "b", "strm")
	// Seed the pool with only the non-owner: reaching b proves the
	// MOVED hop worked.
	pool := stream.NewPool([]string{a.ssrv.Addr()})
	defer pool.Close()
	ch, addr, err := pool.Open(id, 3, "prod-1")
	if err != nil {
		t.Fatal(err)
	}
	if addr != b.ssrv.Addr() {
		t.Fatalf("pool landed on %s, want owner %s", addr, b.ssrv.Addr())
	}

	tr, err := stream.NewTraffic("ring", 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 4; i++ {
		batch := tr.Next(nil, 20)
		if err := ch.Send(batch); err != nil {
			t.Fatalf("send: %v", err)
		}
		total += int64(len(batch))
	}
	if err := ch.Seal(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := b.svc.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	v := sess.Verdict(0)
	if v.EventsApplied != total {
		t.Fatalf("owner applied %d events, want %d", v.EventsApplied, total)
	}
	if v.State != "sealed" {
		t.Fatalf("state %q, want sealed", v.State)
	}
}

// TestClusterPullOnMiss moves a passivated session by ring change alone
// and touches it on the new owner before the old owner's rebalance push
// can land, forcing the pull-on-miss path.
func TestClusterPullOnMiss(t *testing.T) {
	a := startMember(t, "a", t.TempDir())
	defer a.stop(t)
	b := startMember(t, "b", t.TempDir())
	defer b.stop(t)

	solo, err := New(1, 0, []Member{a.Member()})
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, solo, a, b)

	both, err := New(2, 0, []Member{a.Member(), b.Member()})
	if err != nil {
		t.Fatal(err)
	}
	id := idOwnedBy(t, both, "b", "pull")

	sess, err := a.svc.CreateSession(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	events := []service.Event{
		{Op: service.OpCheckpoint, Proc: 0},
		{Op: service.OpSend, Proc: 0, Peer: 1, Msg: 1},
		{Op: service.OpDeliver, Msg: 1},
		{Op: service.OpCheckpoint, Proc: 1},
	}
	if err := sess.Enqueue(events); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// b adopts first and is queried immediately — a, still on the old
	// ring, would even refuse an export until it adopts too. The pull
	// retry loop inside the gate rides out that window.
	adoptAll(t, both, b)
	done := make(chan error, 1)
	go func() {
		got, err := b.svc.Session(id)
		if err != nil {
			done <- err
			return
		}
		v := got.Verdict(0)
		if v.EventsApplied != int64(len(events)) {
			done <- fmt.Errorf("pulled session applied %d events, want %d", v.EventsApplied, len(events))
			return
		}
		done <- nil
	}()
	time.Sleep(50 * time.Millisecond)
	adoptAll(t, both, a)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if b.node.cPulls.Value() == 0 {
		t.Error("pull-on-miss path not taken")
	}
	a.node.WaitRebalance()
	b.node.WaitRebalance()
}

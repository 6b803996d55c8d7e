package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/service"
)

// peerTimeout bounds every HTTP call a node or the router makes to a
// member: exports, imports, drops, ring pushes and fan-out reads.
const peerTimeout = 30 * time.Second

// NodeConfig configures one daemon's shard agent.
type NodeConfig struct {
	// Self is this daemon's member name; it must appear in every ring
	// the node adopts.
	Self string
	// Service is the local checking service. It must be durable
	// (-data-dir): handoff ships session directories.
	Service *service.Service
	// Registry receives the rdt_shard_* metrics; may be nil.
	Registry *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Node is the shard agent inside one rdtserved: it holds the adopted
// ring, gates every session lookup on ownership (installed into the
// service via SetGate), pulls moved-in sessions from their previous
// owner on first touch, and pushes away sessions this daemon no
// longer owns after a ring change.
type Node struct {
	self   string
	svc    *service.Service
	client *http.Client
	logf   func(string, ...any)

	mu      sync.Mutex
	ring    *Ring
	hist    []*Ring                  // displaced rings, newest first; pull-on-miss sources
	pulls   map[string]chan struct{} // per-id pull singleflight
	shipped map[string]time.Time     // ids whose copy left here; export answers 410, not 404

	// In-flight rebalance and forward goroutines, counted under mu with a
	// cond in place of a WaitGroup: they start at any moment, including
	// while WaitRebalance or ensureLocal waits with the count at zero,
	// which a WaitGroup forbids.
	rebalancing int
	idle        *sync.Cond

	gEpoch    *obs.Gauge
	gMembers  *obs.Gauge
	cRedirect *obs.Counter
	cOut      *obs.Counter
	cIn       *obs.Counter
	cPulls    *obs.Counter
	hHandoff  *obs.Histogram
}

// NewNode builds the agent and installs its ownership gate into the
// service. Adopt a ring (directly or via the HTTP handler) before
// expecting redirects; an ungated or ringless node serves every id.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("shard: NodeConfig.Self is required")
	}
	if cfg.Service == nil {
		return nil, errors.New("shard: NodeConfig.Service is required")
	}
	if cfg.Service.Config().DataDir == "" {
		return nil, errors.New("shard: sharding requires a durable service (-data-dir): handoff ships session directories")
	}
	reg := cfg.Registry
	n := &Node{
		self:    cfg.Self,
		svc:     cfg.Service,
		client:  &http.Client{Timeout: peerTimeout},
		logf:    cfg.Logf,
		pulls:   make(map[string]chan struct{}),
		shipped: make(map[string]time.Time),

		gEpoch:    reg.Gauge("rdt_shard_ring_epoch"),
		gMembers:  reg.Gauge("rdt_shard_ring_members"),
		cRedirect: reg.Counter("rdt_shard_redirects_total"),
		cOut:      reg.Counter("rdt_shard_handoffs_total", "direction", "out"),
		cIn:       reg.Counter("rdt_shard_handoffs_total", "direction", "in"),
		cPulls:    reg.Counter("rdt_shard_pulls_total"),
		hHandoff:  reg.Histogram("rdt_shard_handoff_seconds", obs.LatencyBuckets),
	}
	n.idle = sync.NewCond(&n.mu)
	cfg.Service.SetGate(n.checkGate, n.healthInfo)
	return n, nil
}

func (n *Node) logfSafe(format string, args ...any) {
	if n.logf != nil {
		n.logf(format, args...)
	}
}

// Ring returns the adopted ring (nil before the first adoption).
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// maxRingHistory bounds the displaced rings kept as pull-on-miss
// sources. Rapid successive membership changes can leave a session's
// state several epochs behind its current owner (it is still being
// shipped along the chain of previous owners), so a single "previous
// ring" is not enough to find it; eight epochs of history is far more
// than any sane admin cadence outruns.
const maxRingHistory = 8

// AdoptRing installs a ring iff its epoch is newer than the current
// one, keeping the displaced ring as a pull-on-miss source, and —
// when the adoption changed anything — starts a background rebalance
// pushing away every local session the new ring assigns elsewhere.
// Adoption is idempotent per epoch, so config pushes may be retried
// freely.
func (n *Node) AdoptRing(r *Ring) (adopted bool, err error) {
	if _, ok := r.MemberByName(n.self); !ok {
		// A ring without us still gets adopted: it is exactly how a
		// leaving member learns to hand everything off. Redirect targets
		// come from the ring, not from self-membership.
		n.logfSafe("shard: adopting ring epoch %d which excludes this member (%s): handing all sessions off", r.Epoch, n.self)
	}
	n.mu.Lock()
	if n.ring != nil && r.Epoch <= n.ring.Epoch {
		cur := n.ring.Epoch
		n.mu.Unlock()
		if r.Epoch == cur {
			return false, nil // duplicate push
		}
		return false, fmt.Errorf("shard: ring epoch %d is older than adopted epoch %d", r.Epoch, cur)
	}
	// The pull-on-miss history merges what this node displaced itself
	// with the Prev chain the push carried (a fresh member's only view
	// of past ownership), deduplicated by epoch, newest first.
	merged := n.hist
	if n.ring != nil {
		merged = append([]*Ring{n.ring}, merged...)
	}
	for p := r.Prev; p != nil; p = p.Prev {
		merged = append(merged, p)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Epoch > merged[j].Epoch })
	hist := merged[:0:0]
	for _, h := range merged {
		if len(hist) > 0 && hist[len(hist)-1].Epoch == h.Epoch {
			continue
		}
		if h.Epoch >= r.Epoch {
			continue // never keep the adopted ring (or newer) as "history"
		}
		hist = append(hist, h)
	}
	if len(hist) > maxRingHistory {
		hist = hist[:maxRingHistory]
	}
	n.hist = hist
	n.ring = r
	n.rebalancing++ // with the ring: whoever sees r waits for its rebalance
	n.mu.Unlock()
	n.gEpoch.Set(int64(r.Epoch))
	n.gMembers.Set(int64(len(r.Members)))
	n.logfSafe("shard: adopted ring epoch %d (%d members)", r.Epoch, len(r.Members))
	go func() {
		defer n.rebalanceDone()
		n.rebalance(r)
	}()
	return true, nil
}

func (n *Node) rebalanceDone() {
	n.mu.Lock()
	if n.rebalancing--; n.rebalancing == 0 {
		n.idle.Broadcast()
	}
	n.mu.Unlock()
}

// WaitRebalance blocks until every in-flight rebalance has finished
// (tests, smoke scripts, and ensureLocal before it declares a session
// new).
func (n *Node) WaitRebalance() {
	n.mu.Lock()
	for n.rebalancing > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// checkGate is the ownership gate the service runs on every session
// lookup/create. nil means serve locally (pulling the session's state
// from its previous owner first if a ring change moved it here).
func (n *Node) checkGate(id string) error {
	n.mu.Lock()
	ring := n.ring
	hist := n.hist
	n.mu.Unlock()
	if ring == nil {
		return nil
	}
	owner := ring.Owner(id)
	if owner.Name == n.self {
		return n.ensureLocal(id, hist)
	}
	n.cRedirect.Inc()
	return &service.MovedError{Owner: owner.Name, HTTP: owner.HTTP, Stream: owner.Stream}
}

// errShippedAway marks a pull source that answered 410 Gone: it held
// the session's state and deliberately dropped its copy after shipping
// it to another member. The state therefore exists and is (or was
// moments ago) in flight — the puller must wait for it to land
// somewhere, never conclude the session is brand new.
var errShippedAway = errors.New("shard: session state shipped away")

// shippedTTL bounds how long a drop is remembered. In-flight hops are
// bounded by the peer HTTP client timeout (30s); anything older is a
// session that long since landed elsewhere.
const shippedTTL = 60 * time.Second

// inFlightWait bounds how long ensureLocal waits for in-flight state
// to land before failing the request (the client retries; the session
// is never silently recreated empty).
const inFlightWait = 15 * time.Second

// recordShipped remembers that this member deliberately dropped its
// copy of id because the state moved to another member. While the
// memory lasts, the export handler answers 410 Gone instead of 404 for
// the id, which is what lets a new owner's pull walk distinguish "this
// session never existed" (safe to create fresh) from "its state is in
// flight between members" (creating now would fork an empty incarnation
// that later wins import conflicts against the real state). The ledger
// is in-memory: if this process dies right after the drop, the receiver
// already holds the state durably — it 200'd before we dropped.
func (n *Node) recordShipped(id string) {
	now := time.Now()
	n.mu.Lock()
	for k, t := range n.shipped {
		if now.Sub(t) > shippedTTL {
			delete(n.shipped, k)
		}
	}
	n.shipped[id] = now
	n.mu.Unlock()
}

// clearShipped forgets a recorded drop — the state came back here.
func (n *Node) clearShipped(id string) {
	n.mu.Lock()
	delete(n.shipped, id)
	n.mu.Unlock()
}

// shippedRecently reports whether this member dropped id's state after
// handing it off within the ledger's memory.
func (n *Node) shippedRecently(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.shipped[id]
	return ok && time.Since(t) <= shippedTTL
}

// pullSources lists the members that may still hold id's state: its
// owner under each displaced ring, newest epoch first, deduplicated,
// self excluded.
func (n *Node) pullSources(id string, hist []*Ring) []Member {
	var srcs []Member
	seen := map[string]bool{n.self: true}
	for _, h := range hist {
		m := h.Owner(id)
		if !seen[m.Name] {
			seen[m.Name] = true
			srcs = append(srcs, m)
		}
	}
	return srcs
}

// ensureLocal makes sure a session this daemon owns is present before
// the service touches it: if we hold no state, pull the session
// directory from whichever previous owner still has it, walking the
// ring history newest first — under rapid membership changes the state
// may lag several epochs behind. Only a unanimous "never had it" from
// every source lets the create path proceed: a source answering 410
// (it shipped the state away) proves the session exists and its state
// is in flight between members, so the walk re-runs until the state
// lands here or at a source. Without that distinction the walk is a
// time-of-check race — the state can complete a hop mid-walk (landing
// at an already-polled source while the shipper drops its copy), every
// source answers 404, and the owner forks a fresh empty incarnation
// that later wins import conflicts against the real state, destroying
// it. A pull that fails outright fails the request — the client
// retries and the session is never silently recreated empty while its
// real state sits on an old owner.
func (n *Node) ensureLocal(id string, hist []*Ring) error {
	srcs := n.pullSources(id, hist)
	if len(srcs) == 0 {
		return nil
	}
	deadline := time.Now().Add(inFlightWait)
	for {
		if n.svc.HasLocal(id) {
			return nil
		}
		n.mu.Lock()
		ch, inFlight := n.pulls[id]
		if inFlight {
			n.mu.Unlock()
			<-ch
			continue // winner pulled (or proved absence); re-check
		}
		ch = make(chan struct{})
		n.pulls[id] = ch
		n.mu.Unlock()

		pulled, sawShipped := false, false
		var hardErr error
		for _, src := range srcs {
			err := n.pull(id, src)
			switch {
			case err == nil:
				pulled = true
			case errors.Is(err, errShippedAway):
				sawShipped = true
			case errors.Is(err, service.ErrNoSession):
				// keep walking
			default:
				hardErr = err
			}
			if pulled || hardErr != nil {
				break
			}
		}

		n.mu.Lock()
		delete(n.pulls, id)
		n.mu.Unlock()
		close(ch)

		switch {
		case pulled:
			return nil
		case hardErr != nil:
			return hardErr
		case sawShipped:
			// The state exists and is in flight. Wait for the import to
			// land (here via a push, or at a source we can pull from)
			// and look again.
			if time.Now().After(deadline) {
				return fmt.Errorf("shard: session %q state is in flight but never landed", id)
			}
			time.Sleep(5 * time.Millisecond)
		default:
			// Unanimously never existed. Before treating that as a
			// fresh create, let in-flight handoffs land: our own
			// superseded rebalance may still be shipping the very state
			// we looked for along the old owner chain.
			n.WaitRebalance()
			n.logfSafe("shard: session %q absent at every previous owner: treating as new", id)
			return nil // whatever landed (or nothing did): the service looks again
		}
	}
}

// pull fetches id's session directory from src, installs it locally,
// and acknowledges so src deletes its copy. The export side answers
// 409 while it still believes it owns the id (its ring push is
// lagging ours); we retry briefly — config pushes land within
// milliseconds of each other.
func (n *Node) pull(id string, src Member) error {
	n.cPulls.Inc()
	start := time.Now()
	var files map[string][]byte
	for attempt := 0; ; attempt++ {
		var status int
		var err error
		files, status, err = n.fetchExport(src, id)
		if err == nil {
			break
		}
		if status == http.StatusConflict && attempt < 40 {
			time.Sleep(25 * time.Millisecond)
			continue
		}
		return fmt.Errorf("shard: pull %q from %s: %w", id, src.Name, err)
	}
	err := n.svc.ImportSession(id, files)
	switch {
	case err == nil:
		n.clearShipped(id)
		n.logfSafe("shard: pulled session %q from %s in %s", id, src.Name, time.Since(start).Round(time.Millisecond))
	case errors.Is(err, service.ErrSessionLive):
		// A copy already landed here (the push import won the race);
		// the fetched bytes are redundant, the drop ack below still
		// applies. The gate's in-flight discipline guarantees the local
		// copy is the same lineage, not a fresh empty incarnation.
		n.logfSafe("shard: fetched session %q from %s but a local copy already won", id, src.Name)
	case errors.Is(err, service.ErrStateDiverged):
		// Forked state: keep both copies (no drop ack) for reconciliation.
		n.logfSafe("shard: session %q state at %s DIVERGED from local copy: keeping both", id, src.Name)
		return fmt.Errorf("shard: pull %q: %w", id, err)
	default:
		return fmt.Errorf("shard: pull %q: install: %w", id, err)
	}
	// Ack so the old owner drops its (now stale) copy. Best effort: a
	// failure leaves a dead directory behind the gate, cleaned up by
	// the next rebalance that touches it.
	n.dropRemote(src, id)
	n.cIn.Inc()
	n.hHandoff.Observe(time.Since(start).Seconds())
	// A ring adopted mid-pull can reassign the id before the state
	// lands; the epoch's rebalance walk already ran and missed it.
	n.maybeForward(id)
	return nil
}

// maybeForward ships a freshly landed local copy onward when the
// adopted ring no longer assigns the id here. State can land after
// this member's rebalance walk for the current epoch finished (a pull
// or import that started under an older ring), and nothing else
// re-enumerates local sessions — without this the copy would strand
// behind the ownership gate while the owner serves an older copy.
// Runs in the background; a client still streaming into the copy can
// make one export attempt lose its passivation race, so the forward
// retries briefly (the gate stops the client reactivating here, so
// the race clears as soon as its stream drops).
func (n *Node) maybeForward(id string) {
	ring := n.Ring()
	if ring == nil || ring.Owner(id).Name == n.self {
		return
	}
	n.mu.Lock()
	n.rebalancing++
	n.mu.Unlock()
	go func() {
		defer n.rebalanceDone()
		var err error
		for attempt := 0; attempt < 40; attempt++ {
			if attempt > 0 {
				time.Sleep(50 * time.Millisecond)
			}
			// Re-resolve each try: the ring may have moved on (possibly
			// back to us), or the copy may have been pulled away.
			ring := n.Ring()
			if ring == nil {
				return
			}
			owner := ring.Owner(id)
			if owner.Name == n.self || !n.svc.HasLocal(id) {
				return
			}
			n.logfSafe("shard: session %q landed here but %s owns it: forwarding", id, owner.Name)
			if err = n.handoffOut(id, owner); err == nil {
				return
			}
		}
		n.logfSafe("shard: forward %q: %v", id, err)
	}()
}

// fetchExport GETs one session's files from a peer. status is the
// HTTP status when the error came from a non-200 response.
func (n *Node) fetchExport(src Member, id string) (map[string][]byte, int, error) {
	resp, err := n.client.Get("http://" + src.HTTP + "/v1/shard/sessions/" + id + "/export")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close() //nolint:errcheck
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, resp.StatusCode, service.ErrNoSession
	case http.StatusGone:
		return nil, resp.StatusCode, errShippedAway
	default:
		return nil, resp.StatusCode, fmt.Errorf("export: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var files map[string][]byte
	if err := json.Unmarshal(body, &files); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("export: decode: %w", err)
	}
	return files, resp.StatusCode, nil
}

func (n *Node) dropRemote(peer Member, id string) {
	req, err := http.NewRequest(http.MethodDelete, "http://"+peer.HTTP+"/v1/shard/sessions/"+id+"/local", nil)
	if err != nil {
		return
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.logfSafe("shard: drop ack for %q to %s failed: %v", id, peer.Name, err)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// rebalance pushes away every local session the ring assigns to
// another member. It runs in the background after adoption; sessions
// whose clients reach the new owner first are pulled from here
// instead, and the two paths converge (import is first-wins, the
// loser just drops its copy).
func (n *Node) rebalance(r *Ring) {
	ids, err := n.svc.SessionsOnDisk()
	if err != nil {
		n.logfSafe("shard: rebalance scan: %v", err)
		return
	}
	moved := 0
	for _, id := range ids {
		// Skip ids the ring still assigns here — and re-check the
		// current ring each iteration so a newer adoption mid-walk wins.
		if cur := n.Ring(); cur != nil && cur.Epoch != r.Epoch {
			n.logfSafe("shard: rebalance for epoch %d superseded by %d", r.Epoch, cur.Epoch)
			return
		}
		owner := r.Owner(id)
		if owner.Name == n.self {
			continue
		}
		if err := n.handoffOut(id, owner); err != nil {
			n.logfSafe("shard: handoff %q to %s: %v", id, owner.Name, err)
			continue
		}
		moved++
	}
	if moved > 0 {
		n.logfSafe("shard: rebalance epoch %d: moved %d sessions", r.Epoch, moved)
	}
}

// handoffOut passivates one session and ships it to its owner. An
// owner that already has the session (it pulled first) counts as
// success; either way the local copy is dropped only after the owner
// holds the state — and the handoff is complete only once the drop
// actually lands, so a session that slips back to life here (an
// activation re-reading the directory between the export and the
// drop) is re-shipped at its newer state instead of living on behind
// the gate.
func (n *Node) handoffOut(id string, owner Member) error {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if attempt > 8 {
			return fmt.Errorf("handoff %q: local copy keeps reactivating", id)
		}
		files, err := n.svc.ExportSession(id)
		if err != nil {
			if errors.Is(err, service.ErrNoSession) {
				return nil // pulled away (and dropped) underneath the walk
			}
			return err
		}
		body, err := json.Marshal(files)
		if err != nil {
			return err
		}
		resp, err := n.client.Post("http://"+owner.HTTP+"/v1/shard/sessions/"+id+"/import",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusConflict:
			// Already present there: the pull path won, or an earlier
			// attempt's image landed. Dropping ours is correct because the
			// receiver keeps the covering copy (watermark-resolved import)
			// and the gate never creates a session while its state is in
			// flight (the shipped ledger turns the would-be 404 into a 410
			// the owner waits on) — whatever the owner holds is this
			// state's own lineage, at least as new as the shipped image.
		default:
			return fmt.Errorf("import: %s: %s", resp.Status, bytes.TrimSpace(respBody))
		}
		// Remember the drop before performing it: until the ledger entry
		// expires, our export handler answers 410 ("shipped away") rather
		// than 404 ("never existed") for this id, keeping a concurrent pull
		// walk from concluding the session is brand new.
		n.recordShipped(id)
		if !n.svc.DropPassivated(id) && n.svc.HasLocal(id) {
			// An activation re-installed the session from the very
			// directory the export read, so the local copy lives on and
			// will grow past the image just shipped. It is authoritative
			// again: clear the tombstone and ship the newer state.
			n.clearShipped(id)
			continue
		}
		n.cOut.Inc()
		n.hHandoff.Observe(time.Since(start).Seconds())
		n.logfSafe("shard: handed session %q off to %s in %s", id, owner.Name, time.Since(start).Round(time.Millisecond))
		return nil
	}
}

// healthInfo is the /healthz "shard" block.
func (n *Node) healthInfo() any {
	n.mu.Lock()
	ring := n.ring
	n.mu.Unlock()
	info := map[string]any{"self": n.self}
	if ring == nil {
		info["ring"] = nil
		return info
	}
	info["epoch"] = ring.Epoch
	info["members"] = ring.Names()
	return info
}

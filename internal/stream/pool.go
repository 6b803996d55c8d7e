package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// PoolMaxHops bounds MOVED redirects plus endpoint failovers per open;
// a healthy cluster answers in one hop, a mid-rebalance cluster in two.
const PoolMaxHops = 16

// Pool is a cluster-aware stream client: one lazily dialed connection
// per member endpoint, opens that follow MOVED redirects to a session's
// owner, and resume that replays a dead channel's unacked frames from
// the new owner's OPENOK sequence point. Safe for concurrent use.
type Pool struct {
	opts []Option

	mu      sync.Mutex
	seeds   []string // configured endpoints, round-robin entry points
	next    int
	clients map[string]*Client
}

// NewPool builds a pool over the given member stream endpoints. The
// options apply to every connection the pool dials.
func NewPool(endpoints []string, opts ...Option) *Pool {
	return &Pool{
		opts:    opts,
		seeds:   append([]string(nil), endpoints...),
		clients: make(map[string]*Client),
	}
}

// pick returns the next entry-point endpoint, round-robin.
func (p *Pool) pick() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := p.seeds[p.next%len(p.seeds)]
	p.next++
	return addr
}

// client returns the pooled connection to addr, dialing if absent and
// redialing if the cached one has died.
func (p *Pool) client(addr string) (*Client, error) {
	p.mu.Lock()
	c := p.clients[addr]
	p.mu.Unlock()
	if c != nil && c.Err() == nil && !c.Goodbye() {
		return c, nil
	}
	if c != nil {
		_ = c.Close()
	}
	fresh, err := Dial(addr, p.opts...)
	if err != nil {
		p.mu.Lock()
		if p.clients[addr] == c {
			delete(p.clients, addr)
		}
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Lock()
	// A concurrent caller may have redialed first; keep the winner.
	if cur := p.clients[addr]; cur != nil && cur != c && cur.Err() == nil {
		p.mu.Unlock()
		_ = fresh.Close()
		return cur, nil
	}
	p.clients[addr] = fresh
	p.mu.Unlock()
	return fresh, nil
}

// drop forgets a dead connection so the next use redials.
func (p *Pool) drop(addr string, c *Client) {
	p.mu.Lock()
	if p.clients[addr] == c {
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	_ = c.Close()
}

// Open binds a channel to session id on whichever member owns it:
// it enters at a seed endpoint and follows MOVED redirects (and routes
// around dead members) until an owner answers. It returns the channel
// and the endpoint that accepted it.
func (p *Pool) Open(id string, n int, producer string) (*Chan, string, error) {
	addr := p.pick()
	var lastErr error
	for hop := 0; hop < PoolMaxHops; hop++ {
		c, err := p.client(addr)
		if err != nil {
			// Member down (possibly mid-restart): try another entry point
			// after a beat; its ring will redirect us to the live owner.
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			addr = p.pick()
			continue
		}
		ch, err := c.Open(id, n, producer)
		if moved, ok := MovedTo(err); ok {
			addr = moved
			continue
		}
		switch {
		case err == nil:
			return ch, addr, nil
		case errors.Is(err, ErrConnClosed) || errors.Is(err, ErrGoodbye) || c.Err() != nil:
			// The shared connection died under the open — a
			// connection-scoped abort, a server restart, or a raced
			// goodbye; another channel's failure, a seq gap included, is
			// scoped to that channel and never reaches an open. The raw
			// transport error may not wrap ErrConnClosed, so also trust
			// the connection's own post-mortem. Redial.
			p.drop(addr, c)
			lastErr = err
			addr = p.pick()
			continue
		default:
			return nil, "", err
		}
	}
	return nil, "", fmt.Errorf("stream: open %q: no owner after %d hops: %w", id, PoolMaxHops, lastErr)
}

// Resume re-opens a dead channel's (session, producer) stream on the
// current owner and replays the frames the old connection never got
// acked. The server's OPENOK names the next sequence it expects, so
// frames it accepted before the cut (acks lost in flight) are skipped
// here and the rest land exactly once. Returns the fresh channel with
// the replay in flight (Flush to collect the acks) and the endpoint
// now serving the session.
//
// old stays usable as the replay source across retries: its unacked
// set is a stable superset of what any aborted attempt re-sent, and
// each retry re-reads the server's resume point.
func (p *Pool) Resume(old *Chan) (*Chan, string, error) {
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		ch, addr, err := p.resumeOnce(old)
		if err == nil {
			return ch, addr, nil
		}
		lastErr = err
		var pe *ProtocolError
		// Moved and draining obviously warrant another hop. A sequence
		// gap fails only the replaying channel; it means the owner's copy
		// moved (or was superseded) between the OPENOK and the replayed
		// frame — also transient under churn: the next attempt re-reads
		// the resume point. Anything else is a real protocol failure.
		if errors.As(err, &pe) && pe.Code != CodeMoved && pe.Code != CodeDraining && pe.Code != CodeSeqGap {
			return nil, "", err
		}
		time.Sleep(time.Duration(attempt+1) * 25 * time.Millisecond)
	}
	return nil, "", fmt.Errorf("stream: resume %q: %w", old.SessionID, lastErr)
}

func (p *Pool) resumeOnce(old *Chan) (*Chan, string, error) {
	batches := old.Unacked()
	ch, addr, err := p.Open(old.SessionID, old.N, old.Producer)
	if err != nil {
		return nil, "", err
	}
	if len(batches) == 0 && ch.Next < old.NextSeq() {
		// Every frame this channel ever sent was acked, yet the owner's
		// resume point is behind them: it is serving a stale copy whose
		// covering state is still in flight between members. Fail the
		// resume so the caller retries, rather than silently continuing
		// against state that forgot acked events.
		_ = ch.Close()
		return nil, "", fmt.Errorf("stream: resume %q: owner resume point %d behind acked %d (stale copy in flight?)",
			old.SessionID, ch.Next, old.NextSeq()-1)
	}
	next := ch.Next
	for _, b := range batches {
		if b.Seq < next {
			continue // accepted before the cut; only the ack was lost
		}
		if b.Seq != next {
			_ = ch.Close()
			return nil, "", fmt.Errorf("stream: resume %q: unacked frames jump %d -> %d (server expects %d)",
				old.SessionID, next-1, b.Seq, ch.Next)
		}
		if b.Seal {
			err = ch.Seal()
		} else {
			err = ch.Send(b.Events)
		}
		if err != nil {
			return nil, "", err
		}
		next++
	}
	return ch, addr, nil
}

// Close tears down every pooled connection.
func (p *Pool) Close() error {
	p.mu.Lock()
	clients := make([]*Client, 0, len(p.clients))
	for _, c := range p.clients {
		clients = append(clients, c)
	}
	p.clients = make(map[string]*Client)
	p.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

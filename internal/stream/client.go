package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/service"
)

// ErrConnClosed reports an operation on a client whose connection died.
var ErrConnClosed = errors.New("stream: connection closed")

// ErrGoodbye reports a send attempted after the server announced drain.
var ErrGoodbye = errors.New("stream: server said goodbye")

// Option configures a Client.
type Option func(*Client)

// WithAckObserver installs a callback invoked for every acked frame
// with the frame's event count and its send-to-ack round trip — the
// hook load generators hang latency histograms on. fn runs on the
// client's reader goroutine and must be fast.
func WithAckObserver(fn func(events int, rtt time.Duration)) Option {
	return func(c *Client) { c.ackObs = fn }
}

// Client is one RDTSTRM1 connection. All methods are safe for
// concurrent use; a connection multiplexes any number of channels.
type Client struct {
	fc     *frameConn
	ackObs func(int, time.Duration)

	// Window and MaxFrame are the server's advertised limits (HELLO).
	Window   int
	MaxFrame int

	// openMu serializes (pending append, OPEN write) pairs so server
	// replies — answered in arrival order — pair with the FIFO.
	openMu sync.Mutex

	mu      sync.Mutex
	chans   map[uint64]*Chan
	pending []pendingOpen // FIFO: opens awaiting OPENOK/ERROR
	err     error         // connection-fatal error, sticky
	goodbye bool

	readerDone chan struct{}
}

type openResult struct {
	ch  *Chan
	err error
}

// pendingOpen pairs an awaiting open with the producer it named, so the
// OPENOK handler can stamp the resulting channel (OPENOK itself does
// not echo the producer).
type pendingOpen struct {
	res      chan openResult
	producer string
}

// Dial connects, performs the handshake, and starts the reader.
func Dial(addr string, opts ...Option) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := &Client{
		fc:         newFrameConn(conn),
		chans:      make(map[uint64]*Chan),
		readerDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write([]byte(Magic)); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: handshake: %w", err)
	}
	payload, err := c.fc.readFrame()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: handshake: %w", err)
	}
	r := binenc.NewReader(payload)
	if typ := r.Byte(); typ != frameHello {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: handshake: expected HELLO, got frame 0x%02x", typ)
	}
	version := r.Int()
	c.Window = r.Int()
	c.MaxFrame = r.Int()
	if err := r.Done(); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: handshake: %w", err)
	}
	if version != Version {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: server speaks version %d, want %d", version, Version)
	}
	_ = conn.SetDeadline(time.Time{})
	c.fc.max = c.MaxFrame
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; every channel and waiter fails with
// ErrConnClosed.
func (c *Client) Close() error {
	err := c.fc.Close()
	<-c.readerDone
	return err
}

// fatal fails the connection: every channel, pending open, and waiter
// learns err.
func (c *Client) fatal(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = nil
	chans := make([]*Chan, 0, len(c.chans))
	for _, ch := range c.chans {
		chans = append(chans, ch)
	}
	c.mu.Unlock()
	for _, p := range pending {
		p.res <- openResult{err: err}
	}
	for _, ch := range chans {
		ch.fail(err)
	}
	_ = c.fc.Close()
}

// Err reports the connection-fatal error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Goodbye reports whether the server announced drain: stop opening and
// sending, collect remaining acks, hang up.
func (c *Client) Goodbye() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.goodbye
}

// Open binds a channel to session id (created with n processes if
// absent) for the given producer name. The returned channel's sends
// continue the producer's sequence where the server left it; a caller
// replaying an older connection's unacked frames rewinds first (see
// Rewind).
func (c *Client) Open(id string, n int, producer string) (*Chan, error) {
	res := make(chan openResult, 1)
	c.openMu.Lock()
	c.mu.Lock()
	if err := c.openErrLocked(); err != nil {
		c.mu.Unlock()
		c.openMu.Unlock()
		return nil, err
	}
	c.pending = append(c.pending, pendingOpen{res: res, producer: producer})
	c.mu.Unlock()
	var buf []byte
	buf = append(buf, frameOpen)
	buf = binenc.AppendString(buf, id)
	buf = binenc.AppendInt(buf, n)
	buf = binenc.AppendString(buf, producer)
	err := c.fc.writeFrame(buf)
	c.openMu.Unlock()
	if err != nil {
		c.fatal(err)
		return nil, err
	}
	r := <-res
	return r.ch, r.err
}

func (c *Client) openErrLocked() error {
	if c.err != nil {
		return c.err
	}
	if c.goodbye {
		return ErrGoodbye
	}
	return nil
}

// Chan is one open (session, producer) stream on a client connection.
type Chan struct {
	c *Client
	// ID is the wire channel id; SessionID, N, and Producer echo the
	// open; Next is the sequence the server expects next from this
	// producer — the resume point after a reconnect.
	ID        uint64
	SessionID string
	N         int
	Producer  string
	Next      uint64

	// sendMu serializes Send/Seal through the wire write: frames must
	// leave in sequence order or the server reports a gap. It also owns
	// wbuf, the reused encode buffer.
	sendMu sync.Mutex
	wbuf   []byte

	mu       sync.Mutex
	cond     *sync.Cond
	credit   int
	nextSeq  uint64
	inflight map[uint64]inflightRec
	err      error
}

// inflightRec remembers a sent, unacked frame: enough to replay it on a
// new connection and to time its ack.
type inflightRec struct {
	events []service.Event
	seal   bool
	sentAt time.Time
}

// Batch is one replayable unacked frame (see Unacked).
type Batch struct {
	Seq    uint64
	Events []service.Event
	Seal   bool
}

func (ch *Chan) fail(err error) {
	ch.mu.Lock()
	if ch.err == nil {
		ch.err = err
	}
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

// Err reports the channel's sticky failure, if any.
func (ch *Chan) Err() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.err
}

// Send transmits one batch of events as a single frame, blocking while
// the credit window is exhausted. The channel retains events until the
// frame is acked (replay on reconnect needs it); the caller must not
// modify the slice after Send.
func (ch *Chan) Send(events []service.Event) error {
	if len(events) == 0 {
		return errors.New("stream: empty batch")
	}
	if len(events) > ch.c.Window {
		return fmt.Errorf("stream: batch of %d events exceeds the %d-event window", len(events), ch.c.Window)
	}
	ch.sendMu.Lock()
	defer ch.sendMu.Unlock()

	// Encode first — a batch the wire cannot carry should fail without
	// consuming credit or a sequence number.
	buf := ch.wbuf[:0]
	buf = append(buf, frameEvents)
	buf = binenc.AppendUvarint(buf, ch.ID)
	const seqReserve = 10 // uvarint64 max; seq is patched in below
	seqAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binenc.AppendInt(buf, len(events))
	var err error
	for i := range events {
		if buf, err = service.AppendEvent(buf, &events[i]); err != nil {
			ch.wbuf = buf[:0]
			return fmt.Errorf("stream: encoding event %d: %w", i, err)
		}
	}
	if len(buf) > ch.c.MaxFrame {
		ch.wbuf = buf[:0]
		return fmt.Errorf("stream: frame of %d bytes exceeds the server's %d-byte limit", len(buf), ch.c.MaxFrame)
	}

	ch.mu.Lock()
	for ch.err == nil && !ch.c.Goodbye() && ch.credit < len(events) {
		ch.cond.Wait()
	}
	if ch.err != nil {
		err := ch.err
		ch.mu.Unlock()
		return err
	}
	if ch.c.Goodbye() {
		ch.mu.Unlock()
		return ErrGoodbye
	}
	seq := ch.nextSeq
	ch.credit -= len(events)
	ch.nextSeq = seq + 1
	ch.inflight[seq] = inflightRec{events: events, sentAt: time.Now()}
	ch.mu.Unlock()

	// Patch the reserved sequence slot: fixed-width uvarint (all but the
	// last byte carry continuation bits) so the frame length is stable.
	for i := 0; i < seqReserve-1; i++ {
		buf[seqAt+i] = byte(seq&0x7f) | 0x80
		seq >>= 7
	}
	buf[seqAt+seqReserve-1] = byte(seq)
	ch.wbuf = buf
	if err := ch.c.fc.writeFrame(buf); err != nil {
		ch.c.fatal(err)
		return err
	}
	return nil
}

// Seal transmits a seal frame. It consumes a sequence number but no
// credit; the ack arrives once the seal has been applied (for a durable
// session: persisted).
func (ch *Chan) Seal() error {
	ch.sendMu.Lock()
	defer ch.sendMu.Unlock()
	ch.mu.Lock()
	if ch.err != nil {
		err := ch.err
		ch.mu.Unlock()
		return err
	}
	seq := ch.nextSeq
	ch.nextSeq = seq + 1
	ch.inflight[seq] = inflightRec{seal: true, sentAt: time.Now()}
	ch.mu.Unlock()
	buf := ch.wbuf[:0]
	buf = append(buf, frameSeal)
	buf = binenc.AppendUvarint(buf, ch.ID)
	buf = binenc.AppendUvarint(buf, seq)
	ch.wbuf = buf
	if err := ch.c.fc.writeFrame(buf); err != nil {
		ch.c.fatal(err)
		return err
	}
	return nil
}

// Flush blocks until every frame sent on the channel has been acked —
// applied server-side, persisted for durable sessions — or the channel
// fails.
func (ch *Chan) Flush(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		ch.mu.Lock()
		ch.cond.Broadcast()
		ch.mu.Unlock()
	})
	defer stop()
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for ch.err == nil && len(ch.inflight) > 0 && ctx.Err() == nil {
		ch.cond.Wait()
	}
	if ch.err != nil {
		return ch.err
	}
	return ctx.Err()
}

// NextSeq returns the sequence the next Send or Seal will assign.
// Comparing it across a failed send tells whether the frame was
// recorded in flight (a later Resume replays it) or never made it
// past encoding (the caller re-sends it itself).
func (ch *Chan) NextSeq() uint64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.nextSeq
}

// Unacked returns the frames sent but never acked, ordered by
// sequence — what a caller replays (after Rewind) on a fresh
// connection when this one died mid-window.
func (ch *Chan) Unacked() []Batch {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	out := make([]Batch, 0, len(ch.inflight))
	for seq, rec := range ch.inflight {
		out = append(out, Batch{Seq: seq, Events: rec.events, Seal: rec.seal})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Rewind moves the channel's next send sequence back to seq, so the
// following sends replay an older connection's unacked frames. Frames
// the server already accepted are deduplicated and re-acked; the rest
// are applied fresh. seq must not exceed the current next sequence.
func (ch *Chan) Rewind(seq uint64) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if seq == 0 || seq > ch.nextSeq {
		return fmt.Errorf("stream: cannot rewind to seq %d (next is %d)", seq, ch.nextSeq)
	}
	ch.nextSeq = seq
	return nil
}

// Close releases the channel id on the wire. In-flight acks for the
// channel are discarded.
func (ch *Chan) Close() error {
	c := ch.c
	c.mu.Lock()
	delete(c.chans, ch.ID)
	c.mu.Unlock()
	var buf []byte
	buf = append(buf, frameClose)
	buf = binenc.AppendUvarint(buf, ch.ID)
	return c.fc.writeFrame(buf)
}

// ack processes one cumulative ACK: all inflight frames at or below seq
// are done, and credit events of window come back (dup re-acks return
// the credit their resends consumed, so credit is granted even when seq
// is stale).
func (ch *Chan) ack(seq uint64, credit int, c *Client) {
	now := time.Now()
	ch.mu.Lock()
	ch.credit += credit
	for s, rec := range ch.inflight {
		if s <= seq {
			delete(ch.inflight, s)
			if c.ackObs != nil {
				c.ackObs(len(rec.events), now.Sub(rec.sentAt))
			}
		}
	}
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		payload, err := c.fc.readFrame()
		if err != nil {
			c.fatal(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		r := binenc.NewReader(payload)
		switch typ := r.Byte(); typ {
		case frameOpenOK:
			c.handleOpenOK(r)
		case frameAck:
			id := r.Uvarint()
			seq := r.Uvarint()
			credit := r.Int()
			if r.Done() != nil {
				c.fatal(fmt.Errorf("%w: malformed ack", ErrConnClosed))
				return
			}
			c.mu.Lock()
			ch := c.chans[id]
			c.mu.Unlock()
			if ch != nil {
				ch.ack(seq, credit, c)
			}
		case frameError:
			code := r.Int()
			scope := r.Uvarint()
			perr := &ProtocolError{Code: code, Detail: r.String()}
			if r.Done() != nil {
				c.fatal(fmt.Errorf("%w: malformed error frame", ErrConnClosed))
				return
			}
			c.mu.Lock()
			ch := c.chans[scope]
			var res chan openResult
			if scope == 0 && len(c.pending) > 0 {
				// The server answers OPENs in order: scope 0 is the oldest.
				res = c.pending[0].res
				c.pending = c.pending[1:]
			}
			c.mu.Unlock()
			switch {
			case res != nil:
				res <- openResult{err: perr}
			case ch != nil:
				ch.fail(perr)
			case scope == connScope || scope == 0:
				c.fatal(perr)
				return
			}
		case frameGoodbye:
			c.mu.Lock()
			c.goodbye = true
			chans := make([]*Chan, 0, len(c.chans))
			for _, ch := range c.chans {
				chans = append(chans, ch)
			}
			c.mu.Unlock()
			for _, ch := range chans {
				// Wake blocked senders so they observe the drain.
				ch.mu.Lock()
				ch.cond.Broadcast()
				ch.mu.Unlock()
			}
		default:
			c.fatal(fmt.Errorf("%w: unexpected frame 0x%02x", ErrConnClosed, typ))
			return
		}
	}
}

func (c *Client) handleOpenOK(r *binenc.Reader) {
	id := r.Uvarint()
	sessID := r.String()
	n := r.Int()
	next := r.Uvarint()
	window := r.Int()
	if r.Done() != nil {
		c.fatal(fmt.Errorf("%w: malformed open-ok", ErrConnClosed))
		return
	}
	ch := &Chan{
		c:         c,
		ID:        id,
		SessionID: sessID,
		N:         n,
		Next:      next,
		credit:    window,
		nextSeq:   next,
		inflight:  make(map[uint64]inflightRec),
	}
	ch.cond = sync.NewCond(&ch.mu)
	c.mu.Lock()
	var res chan openResult
	if len(c.pending) > 0 {
		res = c.pending[0].res
		ch.Producer = c.pending[0].producer
		c.pending = c.pending[1:]
	}
	c.chans[id] = ch
	c.mu.Unlock()
	if res != nil {
		res <- openResult{ch: ch}
	}
}

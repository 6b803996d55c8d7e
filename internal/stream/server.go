package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/service"
)

// Config tunes a stream Server. Service is required. Every server
// announces DefaultWindow and DefaultMaxFrame in HELLO.
type Config struct {
	// Service receives the frames' event bytes as they are, through the
	// Session admission and apply path the HTTP ingest uses, so
	// validation, durability and verdict semantics are shared.
	Service *service.Service
	// Registry receives the rdt_stream_* metrics; may be nil.
	Registry *obs.Registry
}

// Server accepts RDTSTRM1 connections and feeds the checking service.
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	draining bool

	wg sync.WaitGroup

	mConns        *obs.Gauge
	mConnsTotal   *obs.Counter
	mChansTotal   *obs.Counter
	mEvents       *obs.Counter
	mDups         *obs.Counter
	mBackpressure *obs.Counter
	mAckFrames    *obs.Counter
	hApply        *obs.Histogram
	// rdt_stream_frames_total{type}, one series per frame type.
	mFramesOpen, mFramesEvents, mFramesSeal, mFramesClose *obs.Counter
}

// Serve starts a stream server on addr (":0" picks a port).
func Serve(addr string, cfg Config) (*Server, error) {
	if cfg.Service == nil {
		return nil, errors.New("stream: Config.Service is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	reg := cfg.Registry
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*serverConn]struct{}),

		mConns:        reg.Gauge("rdt_stream_connections"),
		mConnsTotal:   reg.Counter("rdt_stream_connections_total"),
		mChansTotal:   reg.Counter("rdt_stream_channels_total"),
		mEvents:       reg.Counter("rdt_stream_events_total"),
		mDups:         reg.Counter("rdt_stream_dup_frames_total"),
		mBackpressure: reg.Counter("rdt_stream_backpressure_waits_total"),
		mAckFrames:    reg.Counter("rdt_stream_ack_frames_total"),
		// Stream latencies live in the µs-to-ms band; the decade-wide
		// LatencyBuckets would flatten them into two bars.
		hApply: reg.Histogram("rdt_stream_batch_apply_seconds", obs.MicroLatencyBuckets),

		mFramesOpen:   reg.Counter("rdt_stream_frames_total", "type", "open"),
		mFramesEvents: reg.Counter("rdt_stream_frames_total", "type", "events"),
		mFramesSeal:   reg.Counter("rdt_stream_frames_total", "type", "seal"),
		mFramesClose:  reg.Counter("rdt_stream_frames_total", "type", "close"),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) protoErrors(code int) *obs.Counter {
	return s.cfg.Registry.Counter("rdt_stream_errors_total", "code", codeString(code))
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: Shutdown or Close
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = c.Close()
			continue
		}
		sc := newServerConn(s, c)
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.mConns.Add(1)
		s.mConnsTotal.Inc()
		s.wg.Add(1)
		go sc.serve()
	}
}

func (s *Server) dropConn(sc *serverConn) {
	s.mu.Lock()
	_, ok := s.conns[sc]
	delete(s.conns, sc)
	s.mu.Unlock()
	if ok {
		s.mConns.Add(-1)
	}
}

// Shutdown drains gracefully: the listener closes, every connection is
// told GOODBYE (stop sending, collect your acks), and Shutdown waits —
// up to the context deadline — for clients to hang up before forcing
// the stragglers closed. Events already accepted are acked through the
// normal path, so a well-behaved client loses nothing.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	// A goodbye waits for the connection's write lock, which an ack
	// write to a client that stopped reading holds with no deadline. Sent
	// off this goroutine, it cannot outlive ctx: the forced close below
	// fails the stuck write, and then the goodbye.
	for _, sc := range conns {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.goodbye()
		}()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, sc := range conns {
			sc.close("shutdown")
		}
		s.wg.Wait()
		return fmt.Errorf("stream: shutdown: %w", ctx.Err())
	}
}

// Close tears the server down immediately.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	s.draining = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.close("shutdown")
	}
	s.wg.Wait()
	return err
}

// ackEntry is one channel's apply completions not yet acked: the
// highest applied seq, the credit they return and the first failure.
type ackEntry struct {
	seq    uint64
	credit int
	err    error
}

// serverConn is one accepted connection: a reader goroutine decoding
// and enqueueing frames, and an ack goroutine writing the ack table.
type serverConn struct {
	srv *Server
	fc  *frameConn

	// acks holds at most one entry per channel, so session workers merge
	// into it without ever blocking; ackWake (cap 1) tells ackLoop it
	// is not empty.
	ackMu    sync.Mutex
	acks     map[uint64]ackEntry
	ackWake  chan struct{}
	closedCh chan struct{}
	closed   sync.Once

	// Reader-goroutine state (no locking needed).
	chans    map[uint64]*serverChan
	nextChan uint64
}

type serverChan struct {
	id       uint64
	sess     *service.Session
	producer string
}

func newServerConn(s *Server, c net.Conn) *serverConn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &serverConn{
		srv:      s,
		fc:       newFrameConn(c),
		acks:     make(map[uint64]ackEntry),
		ackWake:  make(chan struct{}, 1),
		closedCh: make(chan struct{}),
		chans:    make(map[uint64]*serverChan),
	}
}

// close hangs up once, counting why: an abort's code, "write-error",
// "peer" (the client hung up) or "shutdown".
func (sc *serverConn) close(reason string) {
	sc.closed.Do(func() {
		sc.srv.cfg.Registry.Counter("rdt_stream_conn_closes_total", "reason", reason).Inc()
		close(sc.closedCh)
		_ = sc.fc.Close()
	})
}

// goodbye asks the client to wind down; the connection stays open for
// the client's remaining acks until it hangs up.
func (sc *serverConn) goodbye() {
	_ = sc.fc.writeFrame([]byte{frameGoodbye})
}

// abort reports a connection-fatal protocol error and hangs up.
func (sc *serverConn) abort(code int, detail string) {
	sc.srv.protoErrors(code).Inc()
	_ = sc.fc.writeError(connScope, code, detail)
	sc.close(codeString(code))
}

// chanError reports a failure in scope, a channel or (0) the oldest
// pending open; the connection lives on.
func (sc *serverConn) chanError(scope uint64, code int, detail string) {
	sc.srv.protoErrors(code).Inc()
	if err := sc.fc.writeError(scope, code, detail); err != nil {
		sc.close("write-error")
	}
}

func (sc *serverConn) serve() {
	defer sc.srv.wg.Done()
	defer sc.srv.dropConn(sc)

	if err := sc.handshake(); err != nil {
		sc.abort(CodeHandshake, err.Error())
		return
	}
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		sc.ackLoop()
	}()
	sc.readLoop()
	sc.close("peer") // unless an abort, a failed write or a shutdown closed it first
	<-ackDone
}

func (sc *serverConn) handshake() error {
	_ = sc.fc.c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(sc.fc.r, magic[:]); err != nil {
		return fmt.Errorf("reading magic: %v", err)
	}
	if string(magic[:]) != Magic {
		return fmt.Errorf("bad magic %q", magic)
	}
	_ = sc.fc.c.SetReadDeadline(time.Time{})
	return sc.fc.writeHello()
}

func (sc *serverConn) readLoop() {
	for {
		payload, err := sc.fc.readFrame()
		if err != nil {
			var tooBig errFrameTooBig
			switch {
			case errors.As(err, &tooBig):
				sc.abort(CodeFrameTooBig, err.Error())
			case errors.Is(err, errBadCRC):
				sc.abort(CodeMalformed, err.Error())
			}
			return // EOF, reset, or closed by abort: done either way
		}
		r := binenc.NewReader(payload)
		var ok bool
		switch typ := r.Byte(); typ {
		case frameOpen:
			ok = sc.handleOpen(r)
		case frameEvents:
			ok = sc.handleEvents(r)
		case frameSeal:
			ok = sc.handleSeal(r)
		case frameClose:
			sc.srv.mFramesClose.Inc()
			delete(sc.chans, r.Uvarint())
			ok = true
		default:
			sc.abort(CodeMalformed, fmt.Sprintf("unknown frame type 0x%02x", typ))
		}
		if !ok {
			return
		}
	}
}

func (sc *serverConn) handleOpen(r *binenc.Reader) bool {
	sc.srv.mFramesOpen.Inc()
	id := r.String()
	n := r.Int()
	producer := r.String()
	if err := r.Done(); err != nil {
		sc.abort(CodeMalformed, "open: "+err.Error())
		return false
	}
	svc := sc.srv.cfg.Service
	sess, err := svc.Session(id)
	if errors.Is(err, service.ErrNoSession) {
		sess, err = svc.CreateSession(id, n)
		if errors.Is(err, service.ErrSessionExists) {
			// Lost a create race; the winner's session serves us.
			sess, err = svc.Session(id)
		}
	}
	var mv *service.MovedError
	switch {
	case errors.As(err, &mv):
		// The stream wire's redirect: detail carries the owner's stream
		// address, the client reconnects there and resumes via OPENOK.
		sc.chanError(0, CodeMoved, mv.Stream)
		return true
	case errors.Is(err, service.ErrDraining):
		sc.chanError(0, CodeDraining, err.Error())
		return true
	case err != nil:
		sc.chanError(0, CodeSession, err.Error())
		return true
	case sess.N != n:
		sc.chanError(0, CodeSession,
			fmt.Sprintf("session %q has %d processes, open asked for %d", id, sess.N, n))
		return true
	}
	sc.nextChan++
	ch := &serverChan{id: sc.nextChan, sess: sess, producer: producer}
	sc.chans[ch.id] = ch
	sc.srv.mChansTotal.Inc()

	var buf []byte
	buf = append(buf, frameOpenOK)
	buf = binenc.AppendUvarint(buf, ch.id)
	buf = binenc.AppendString(buf, id)
	buf = binenc.AppendInt(buf, sess.N)
	buf = binenc.AppendUvarint(buf, sess.ProducerSeq(producer)+1)
	buf = binenc.AppendInt(buf, DefaultWindow)
	if err := sc.fc.writeFrame(buf); err != nil {
		sc.close("write-error")
		return false
	}
	return true
}

func (sc *serverConn) handleEvents(r *binenc.Reader) bool {
	sc.srv.mFramesEvents.Inc()
	start := time.Now()
	id := r.Uvarint()
	seq := r.Uvarint()
	count := r.Int()
	if r.Err() == nil && (count == 0 || count > service.DefaultMaxBatch) {
		sc.abort(CodeBatchTooBig, fmt.Sprintf("events frame carries %d events, limit %d", count, service.DefaultMaxBatch))
		return false
	}
	ch, ok := sc.chans[id]
	if r.Err() == nil && !ok {
		sc.abort(CodeUnknownChan, fmt.Sprintf("events for unopened channel %d", id))
		return false
	}
	if err := r.Err(); err != nil {
		sc.abort(CodeMalformed, "events frame: "+err.Error())
		return false
	}
	// The rest of the frame is the events, in the encoding the WAL record
	// holds: admission checks them and copies them in as they are.
	return sc.submit(ch, seq, count, r.Take(r.Remaining()), false, start)
}

func (sc *serverConn) handleSeal(r *binenc.Reader) bool {
	sc.srv.mFramesSeal.Inc()
	start := time.Now()
	id := r.Uvarint()
	seq := r.Uvarint()
	if err := r.Done(); err != nil {
		sc.abort(CodeMalformed, "seal frame: "+err.Error())
		return false
	}
	ch, ok := sc.chans[id]
	if !ok {
		sc.abort(CodeUnknownChan, fmt.Sprintf("seal for unopened channel %d", id))
		return false
	}
	return sc.submit(ch, seq, 0, nil, true, start)
}

// submit hands one mutating frame — count events in their encoding, or
// a seal — to the session, blocking — the stream's backpressure is TCP
// pushback, not 429 — while the session queue is full. Duplicate frames
// (replays of an accepted sequence) are re-acked through a queue barrier
// so the ack orders after the original application.
func (sc *serverConn) submit(ch *serverChan, seq uint64, count int, events []byte, seal bool, start time.Time) bool {
	notify := sc.notifyFunc(ch.id, seq, count, start)
	backoff := 200 * time.Microsecond
	reresolved := 0
	for {
		dup, err := ch.sess.EnqueueEncoded(ch.producer, seq, count, events, seal, notify)
		switch {
		case dup:
			// The original is (at least) still queued; ack behind it. The
			// barrier carries the frame's event count as credit: the client
			// spent window resending, and only an ack returns it. notify
			// never ran for the duplicate, so the barrier takes it over.
			sc.srv.mDups.Inc()
			for {
				if err := ch.sess.EnqueueNotify(nil, notify); !errors.Is(err, service.ErrBackpressure) {
					if err != nil {
						sc.chanError(ch.id, CodeSession, err.Error())
					}
					break
				}
				sc.srv.mBackpressure.Inc()
				if !sc.sleep(&backoff) {
					return false
				}
			}
			return true
		case errors.Is(err, service.ErrBackpressure):
			sc.srv.mBackpressure.Inc()
			if !sc.sleep(&backoff) {
				return false
			}
			continue
		case errors.Is(err, service.ErrInvalidEvent):
			sc.abort(CodeMalformed, "events frame: "+err.Error())
			return false
		case errors.Is(err, service.ErrSeqGap):
			sc.chanError(ch.id, CodeSeqGap, err.Error())
			return true
		case errors.Is(err, service.ErrClosed):
			// The session object went away under the channel — evicted, or
			// passivated for a shard handoff. Re-resolve through the service:
			// a fresh live session means a local reactivation (retry against
			// it); a MovedError means the session now lives elsewhere.
			if fresh, rerr := sc.srv.cfg.Service.Session(ch.sess.ID); rerr == nil {
				if fresh != ch.sess && reresolved < 4 {
					reresolved++
					ch.sess = fresh
					continue
				}
			} else if mv := (*service.MovedError)(nil); errors.As(rerr, &mv) {
				sc.chanError(ch.id, CodeMoved, mv.Stream)
				return true
			}
			sc.chanError(ch.id, CodeSession, err.Error())
			return true
		case err != nil:
			// Sealed, failed, degraded, closed: the channel is done but
			// the connection (and its other channels) lives on.
			sc.chanError(ch.id, CodeSession, err.Error())
			return true
		}
		sc.srv.mEvents.Add(int64(count))
		return true
	}
}

// sleep backs off between backpressure retries; false means the
// connection closed while waiting.
func (sc *serverConn) sleep(backoff *time.Duration) bool {
	select {
	case <-sc.closedCh:
		return false
	case <-time.After(*backoff):
	}
	if *backoff < 2*time.Millisecond {
		*backoff *= 2
	}
	return true
}

// notifyFunc builds the apply-completion callback for one frame. It
// runs on the session worker and merges the frame into the channel's
// ack table entry, which never blocks and never drops.
func (sc *serverConn) notifyFunc(ch, seq uint64, credit int, start time.Time) func(error) {
	return func(err error) {
		sc.srv.hApply.Observe(time.Since(start).Seconds())
		sc.ackMu.Lock()
		e := sc.acks[ch]
		if err == nil {
			e.seq = max(e.seq, seq)
			e.credit += credit
		} else if e.err == nil {
			e.err = err
		}
		sc.acks[ch] = e
		sc.ackMu.Unlock()
		select {
		case sc.ackWake <- struct{}{}:
		default:
		}
	}
}

// ackLoop swaps the ack table out and writes each channel's cumulative
// ACK, then its first failure, so a burst of small batches costs one
// frame, not hundreds.
func (sc *serverConn) ackLoop() {
	spare := make(map[uint64]ackEntry)
	var buf []byte
	for {
		select {
		case <-sc.closedCh:
			return
		case <-sc.ackWake:
		}
		sc.ackMu.Lock()
		acks := sc.acks
		sc.acks = spare
		sc.ackMu.Unlock()
		for ch, e := range acks {
			if e.seq > 0 || e.credit > 0 {
				buf = binenc.AppendUvarint(append(buf[:0], frameAck), ch)
				buf = binenc.AppendInt(binenc.AppendUvarint(buf, e.seq), e.credit)
				sc.srv.mAckFrames.Inc()
				if err := sc.fc.writeFrame(buf); err != nil {
					sc.close("write-error")
					return
				}
			}
			if e.err != nil {
				sc.chanError(ch, CodeSession, e.err.Error())
			}
		}
		clear(acks)
		spare = acks
	}
}

// connCount reports live connections (tests).
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

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
	for _, sc := range conns {
		sc.goodbye()
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
			sc.close()
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
		sc.close()
	}
	s.wg.Wait()
	return err
}

// ackNote is one completion the session worker reports back to the
// connection: frame seq of channel ch applied (or failed), events many
// events' credit to return.
type ackNote struct {
	ch     uint64
	seq    uint64
	events int
	err    error
	start  time.Time
}

// serverConn is one accepted connection: a reader goroutine decoding
// and enqueueing frames, and an ack goroutine coalescing apply
// completions into ACK frames.
type serverConn struct {
	srv *Server
	fc  *frameConn

	acks     chan ackNote
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
		acks:     make(chan ackNote, 4096),
		closedCh: make(chan struct{}),
		chans:    make(map[uint64]*serverChan),
	}
}

func (sc *serverConn) close() {
	sc.closed.Do(func() {
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
	var buf []byte
	buf = append(buf, frameError)
	buf = binenc.AppendInt(buf, code)
	buf = binenc.AppendUvarint(buf, 0)
	buf = binenc.AppendString(buf, detail)
	_ = sc.fc.writeFrame(buf)
	sc.close()
}

func (sc *serverConn) serve() {
	defer sc.srv.wg.Done()
	defer sc.srv.dropConn(sc)
	defer sc.close()

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
	sc.close()
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
	var buf []byte
	buf = append(buf, frameHello)
	buf = binenc.AppendInt(buf, Version)
	buf = binenc.AppendInt(buf, DefaultWindow)
	buf = binenc.AppendInt(buf, DefaultMaxFrame)
	return sc.fc.writeFrame(buf)
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

// chanError reports a channel-scoped failure; the connection lives on.
func (sc *serverConn) chanError(ch uint64, code int, detail string) {
	sc.srv.protoErrors(code).Inc()
	var buf []byte
	buf = append(buf, frameError)
	buf = binenc.AppendInt(buf, code)
	buf = binenc.AppendUvarint(buf, ch)
	buf = binenc.AppendString(buf, detail)
	_ = sc.fc.writeFrame(buf)
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
			sc.abort(CodeSeqGap, err.Error())
			return false
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

// notifyFunc builds the apply-completion callback for one frame: it
// posts the ack note carrying credit events of window back. It runs on
// the session worker goroutine and must not block: a full ack channel (a
// client not reading acks while pushing thousands of frames) closes the
// connection rather than stalling the session worker.
func (sc *serverConn) notifyFunc(ch, seq uint64, credit int, start time.Time) func(error) {
	return func(err error) {
		select {
		case sc.acks <- ackNote{ch: ch, seq: seq, events: credit, err: err, start: start}:
		case <-sc.closedCh:
		default:
			sc.close()
		}
	}
}

// ackLoop coalesces apply completions into cumulative ACK frames: all
// notes immediately available are merged per channel before writing, so
// a burst of small batches costs one frame, not hundreds.
func (sc *serverConn) ackLoop() {
	type agg struct {
		seq    uint64
		credit int
	}
	pending := make(map[uint64]*agg)
	var order []uint64
	collect := func(n ackNote) {
		sc.srv.hApply.Observe(time.Since(n.start).Seconds())
		if n.err != nil {
			sc.chanError(n.ch, CodeSession, n.err.Error())
			return
		}
		a := pending[n.ch]
		if a == nil {
			a = &agg{}
			pending[n.ch] = a
			order = append(order, n.ch)
		}
		if n.seq > a.seq {
			a.seq = n.seq
		}
		a.credit += n.events
	}
	var buf []byte
	for {
		select {
		case <-sc.closedCh:
			return
		case n := <-sc.acks:
			collect(n)
		}
	drain:
		for {
			select {
			case n := <-sc.acks:
				collect(n)
			default:
				break drain
			}
		}
		for _, ch := range order {
			a := pending[ch]
			buf = buf[:0]
			buf = append(buf, frameAck)
			buf = binenc.AppendUvarint(buf, ch)
			buf = binenc.AppendUvarint(buf, a.seq)
			buf = binenc.AppendInt(buf, a.credit)
			if err := sc.fc.writeFrame(buf); err != nil {
				sc.close()
				return
			}
			delete(pending, ch)
		}
		order = order[:0]
	}
}

// connCount reports live connections (tests).
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

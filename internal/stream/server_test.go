package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/service"
)

// startServer boots a service plus a stream server on a loopback port.
func startServer(t *testing.T, svcCfg service.Config, streamCfg Config) (*service.Service, *Server) {
	t.Helper()
	svc, err := service.New(svcCfg)
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	streamCfg.Service = svc
	srv, err := Serve("127.0.0.1:0", streamCfg)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return svc, srv
}

func flushVerdict(t *testing.T, sess *service.Session) *service.Verdict {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return sess.Verdict(0)
}

func TestStreamBasic(t *testing.T) {
	reg := obs.NewRegistry()
	svc, srv := startServer(t, service.Config{}, Config{Registry: reg})

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	if c.Window != DefaultWindow || c.MaxFrame != DefaultMaxFrame {
		t.Fatalf("hello advertised window=%d maxFrame=%d", c.Window, c.MaxFrame)
	}

	ch, err := c.Open("s1", 3, "p0")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if ch.SessionID != "s1" || ch.N != 3 || ch.Next != 1 {
		t.Fatalf("chan = %+v", ch)
	}

	tr, _ := NewTraffic("random", 3, 7)
	total := 0
	for i := 0; i < 20; i++ {
		batch := tr.Next(nil, 50)
		total += len(batch)
		if err := ch.Send(batch); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := ch.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	sess, err := svc.Session("s1")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	v := sess.Verdict(0)
	if v.State != service.StateSealed || v.EventsApplied != int64(total) {
		t.Fatalf("verdict state=%s applied=%d want sealed/%d (err %q)",
			v.State, v.EventsApplied, total, v.Error)
	}
	if got := reg.Counter("rdt_stream_events_total").Value(); got != int64(total) {
		t.Errorf("rdt_stream_events_total = %d, want %d", got, total)
	}
	if reg.Histogram("rdt_stream_batch_apply_seconds", obs.MicroLatencyBuckets).Count() == 0 {
		t.Error("no batch-apply latency observations")
	}
}

func TestStreamOpenExistingAndMismatch(t *testing.T) {
	svc, srv := startServer(t, service.Config{}, Config{})
	if _, err := svc.CreateSession("pre", 4); err != nil {
		t.Fatalf("create: %v", err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck

	if ch, err := c.Open("pre", 4, "p"); err != nil || ch.N != 4 {
		t.Fatalf("open existing: %v (%+v)", err, ch)
	}
	_, err = c.Open("pre", 2, "p")
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeSession {
		t.Fatalf("open with wrong n: %v, want session protocol error", err)
	}
	// The connection survives a failed open.
	if _, err := c.Open("fresh", 2, "p"); err != nil {
		t.Fatalf("open after failed open: %v", err)
	}
}

// rawConn speaks just enough protocol by hand to probe error paths.
type rawConn struct {
	t  *testing.T
	fc *frameConn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return handshakeRaw(t, conn)
}

// handshakeRaw writes the magic on conn and reads the server's HELLO.
func handshakeRaw(t *testing.T, conn net.Conn) *rawConn {
	t.Helper()
	t.Cleanup(func() { conn.Close() }) //nolint:errcheck
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatalf("magic: %v", err)
	}
	fc := newFrameConn(conn)
	payload, err := fc.readFrame()
	if err != nil || payload[0] != frameHello {
		t.Fatalf("hello: %v (%v)", err, payload)
	}
	return &rawConn{t: t, fc: fc}
}

func (rc *rawConn) open(id string, n int, producer string) uint64 {
	rc.t.Helper()
	var buf []byte
	buf = append(buf, frameOpen)
	buf = binenc.AppendString(buf, id)
	buf = binenc.AppendInt(buf, n)
	buf = binenc.AppendString(buf, producer)
	if err := rc.fc.writeFrame(buf); err != nil {
		rc.t.Fatalf("open: %v", err)
	}
	payload, err := rc.fc.readFrame()
	if err != nil || payload[0] != frameOpenOK {
		rc.t.Fatalf("open-ok: %v (% x)", err, payload)
	}
	return binenc.NewReader(payload[1:]).Uvarint()
}

// eventsFrame builds channel ch's EVENTS frame seq holding count
// checkpoints of process 0.
func eventsFrame(ch, seq uint64, count int) []byte {
	buf := binenc.AppendInt(binenc.AppendUvarint(binenc.AppendUvarint([]byte{frameEvents}, ch), seq), count)
	for i := 0; i < count; i++ {
		buf, _ = service.AppendEvent(buf, &service.Event{Op: service.OpCheckpoint})
	}
	return buf
}

// expectError reads frames until an ERROR arrives and returns its code,
// failing if the connection closes first.
func (rc *rawConn) expectError() int {
	rc.t.Helper()
	for {
		payload, err := rc.fc.readFrame()
		if err != nil {
			rc.t.Fatalf("waiting for error frame: %v", err)
		}
		if payload[0] != frameError {
			continue
		}
		return binenc.NewReader(payload[1:]).Int()
	}
}

func TestStreamOversizedFrameRejected(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := startServer(t, service.Config{}, Config{Registry: reg})
	rc := dialRaw(t, srv.Addr())
	// Header claiming a 16 MiB payload, past DefaultMaxFrame; nothing
	// follows.
	hdr := []byte{0, 0, 0, 1, 0, 0, 0, 0}
	if _, err := rc.fc.c.Write(hdr); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code := rc.expectError(); code != CodeFrameTooBig {
		t.Fatalf("error code %d, want frame-too-big", code)
	}
	// The server hangs up after a connection-fatal error.
	if _, err := rc.fc.readFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("after abort: %v, want EOF", err)
	}
	if got := reg.Counter("rdt_stream_conn_closes_total", "reason", "frame-too-big").Value(); got != 1 {
		t.Errorf("closes{reason=frame-too-big} = %d, want 1", got)
	}
}

// TestBatchLimitOnBothWires: the JSON and RDTSTRM1 wires take
// service.DefaultMaxBatch events in one request or frame and refuse one
// more, the JSON wire with 400 and the stream with a batch-too-big
// abort.
func TestBatchLimitOnBothWires(t *testing.T) {
	svc, srv := startServer(t, service.Config{}, Config{})
	api := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(api.Close)
	checkpoints := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(`{"op":"checkpoint","proc":0},`, n), ",") + "]"
	}
	for _, tc := range []struct {
		events int
		status int // JSON wire
		code   int // stream wire: 0 means acked
	}{
		{service.DefaultMaxBatch, http.StatusAccepted, 0},
		{service.DefaultMaxBatch + 1, http.StatusBadRequest, CodeBatchTooBig},
	} {
		id := fmt.Sprintf("json-%d", tc.events)
		if _, err := svc.CreateSession(id, 2); err != nil {
			t.Fatalf("create: %v", err)
		}
		resp, err := http.Post(api.URL+"/v1/sessions/"+id+"/events", "application/json", strings.NewReader(checkpoints(tc.events)))
		if err != nil {
			t.Fatalf("POST %d events: %v", tc.events, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("JSON, %d events: status %d, want %d", tc.events, resp.StatusCode, tc.status)
		}

		rc := dialRaw(t, srv.Addr())
		ch := rc.open(fmt.Sprintf("stream-%d", tc.events), 2, "p")
		if err := rc.fc.writeFrame(eventsFrame(ch, 1, tc.events)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if code := rc.expectAckOrError(); code != tc.code {
			t.Errorf("stream, %d events: error code %d, want %d", tc.events, code, tc.code)
		}
	}
}

// expectAckOrError reads frames until an ACK (0) or an ERROR (its code)
// arrives, failing if the connection closes first.
func (rc *rawConn) expectAckOrError() int {
	rc.t.Helper()
	for {
		payload, err := rc.fc.readFrame()
		if err != nil {
			rc.t.Fatalf("waiting for an ack or error frame: %v", err)
		}
		switch payload[0] {
		case frameAck:
			return 0
		case frameError:
			return binenc.NewReader(payload[1:]).Int()
		}
	}
}

// TestStreamSeqGapFailsOnlyItsChannel: a seq gap fails the channel
// that skipped ahead, not an open sent behind it on the same
// connection, and not the connection.
func TestStreamSeqGapFailsOnlyItsChannel(t *testing.T) {
	_, srv := startServer(t, service.Config{}, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	gapped, err := c.Open("gapped", 2, "p")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Seq 5 skips 1..4. The server reads frames in order, so it finds
	// the gap before it answers the open that follows.
	if err := c.fc.writeFrame(eventsFrame(gapped.ID, 5, 1)); err != nil {
		t.Fatalf("write: %v", err)
	}
	ch, err := c.Open("fresh", 2, "p")
	if err != nil {
		t.Fatalf("open behind another channel's gap: %v", err)
	}
	var perr *ProtocolError
	if err := gapped.Err(); !errors.As(err, &perr) || perr.Code != CodeSeqGap {
		t.Fatalf("gapped channel: %v, want seq-gap", err)
	}
	if err := ch.Send(testBatch(2)); err != nil {
		t.Fatalf("send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("connection failed: %v", err)
	}
}

// TestStreamAckTableNeverCloses: a client that writes without reading
// stalls the server's ack writer on its first ACK (net.Pipe has no
// buffer), while the session keeps applying. The completions merge into
// the connection's ack table instead of closing the connection: all
// 5000 one-event frames land, and reading afterwards yields cumulative
// ACKs up to seq 5000 that return 5000 events of credit.
func TestStreamAckTableNeverCloses(t *testing.T) {
	reg := obs.NewRegistry()
	svc, srv := startServer(t, service.Config{}, Config{Registry: reg})
	client, server := net.Pipe()
	sc := newServerConn(srv, server)
	srv.wg.Add(1)
	go sc.serve()
	rc := handshakeRaw(t, client)
	ch := rc.open("stalled", 2, "p")
	const frames = 5000
	for seq := uint64(1); seq <= frames; seq++ {
		if err := rc.fc.writeFrame(eventsFrame(ch, seq, 1)); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}
	// CLOSE has no answer, and net.Pipe's write returns once the server
	// has read it, after it enqueued every frame before it.
	if err := rc.fc.writeFrame(binenc.AppendUvarint([]byte{frameClose}, ch)); err != nil {
		t.Fatalf("close: %v", err)
	}
	sess, err := svc.Session("stalled")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if v := flushVerdict(t, sess); v.EventsApplied != frames {
		t.Fatalf("applied %d events, want %d", v.EventsApplied, frames)
	}
	var seq uint64
	credit, acks := 0, int64(0)
	for seq < frames {
		payload, err := rc.fc.readFrame()
		if err != nil {
			t.Fatalf("after seq %d: %v", seq, err)
		}
		r := binenc.NewReader(payload)
		if typ := r.Byte(); typ != frameAck || r.Uvarint() != ch {
			t.Fatalf("frame % x, want an ACK on channel %d", payload, ch)
		}
		seq = r.Uvarint()
		credit += r.Int()
		acks++
	}
	if seq != frames || credit != frames {
		t.Fatalf("acked seq %d with %d credit, want %d and %d", seq, credit, frames, frames)
	}
	if got := reg.Counter("rdt_stream_ack_frames_total").Value(); got != acks {
		t.Errorf("rdt_stream_ack_frames_total = %d, want the %d ACKs read", got, acks)
	}
}

func TestStreamUnknownChannelAborts(t *testing.T) {
	_, srv := startServer(t, service.Config{}, Config{})
	rc := dialRaw(t, srv.Addr())
	var buf []byte
	buf = append(buf, frameSeal)
	buf = binenc.AppendUvarint(buf, 42)
	buf = binenc.AppendUvarint(buf, 1)
	if err := rc.fc.writeFrame(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code := rc.expectError(); code != CodeUnknownChan {
		t.Fatalf("error code %d, want unknown-channel", code)
	}
}

func TestStreamDupReplayAppliesOnce(t *testing.T) {
	svc, srv := startServer(t, service.Config{}, Config{})
	tr, _ := NewTraffic("ring", 3, 11)
	batches := make([][]service.Event, 6)
	for i := range batches {
		batches[i] = tr.Next(nil, 25)
	}

	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	ch1, err := c1.Open("s", 3, "gen")
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	for i, b := range batches {
		if err := ch1.Send(b); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch1.Flush(ctx); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	_ = c1.Close()

	// A second connection replays EVERY frame — all duplicates. The
	// server must re-ack them without applying anything twice.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close() //nolint:errcheck
	ch2, err := c2.Open("s", 3, "gen")
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	if ch2.Next != uint64(len(batches))+1 {
		t.Fatalf("resume seq %d, want %d", ch2.Next, len(batches)+1)
	}
	if err := ch2.Rewind(1); err != nil {
		t.Fatalf("rewind: %v", err)
	}
	for i, b := range batches {
		if err := ch2.Send(b); err != nil {
			t.Fatalf("resend %d: %v", i, err)
		}
	}
	if err := ch2.Flush(ctx); err != nil {
		t.Fatalf("flush 2: %v", err)
	}

	total := 0
	for _, b := range batches {
		total += len(b)
	}
	sess, _ := svc.Session("s")
	if v := sess.Verdict(0); v.EventsApplied != int64(total) {
		t.Fatalf("applied %d events, want exactly %d", v.EventsApplied, total)
	}
}

func TestStreamCreditWindowBlocksAndRecovers(t *testing.T) {
	_, srv := startServer(t, service.Config{}, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	ch, err := c.Open("s", 2, "p")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tr, _ := NewTraffic("pairs", 2, 3)
	// Twice the window and then some, in the largest batches: the sends
	// past the first window's worth must wait for acks. Liveness is the
	// assertion.
	const batch = service.DefaultMaxBatch
	for i := 0; i < 2*DefaultWindow/batch+8; i++ {
		if err := ch.Send(tr.Next(nil, batch)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestStreamGracefulDrain(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := startServer(t, service.Config{}, Config{Registry: reg})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	ch, err := c.Open("s", 2, "p")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tr, _ := NewTraffic("random", 2, 5)
	if err := ch.Send(tr.Next(nil, 100)); err != nil {
		t.Fatalf("send: %v", err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// The in-flight frame is acked through the drain.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ch.Flush(ctx); err != nil {
		t.Fatalf("flush during drain: %v", err)
	}
	// Goodbye eventually stops new sends.
	deadline := time.Now().Add(5 * time.Second)
	for !c.Goodbye() {
		if time.Now().After(deadline) {
			t.Fatal("goodbye never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ch.Send(tr.Next(nil, 10)); !errors.Is(err, ErrGoodbye) {
		t.Fatalf("send after goodbye: %v, want ErrGoodbye", err)
	}
	_ = c.Close()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The client hung up on its own: the drain forced nothing closed.
	if got := reg.Counter("rdt_stream_conn_closes_total", "reason", "peer").Value(); got != 1 {
		t.Errorf("closes{reason=peer} = %d, want 1", got)
	}
	if got := reg.Counter("rdt_stream_conn_closes_total", "reason", "shutdown").Value(); got != 0 {
		t.Errorf("closes{reason=shutdown} = %d, want 0", got)
	}
}

// TestStreamShutdownHonorsDeadline: a client that stops reading holds
// the server's writes (net.Pipe has no buffer), so the goodbye can never
// be written. Shutdown must still return ctx's error once the deadline
// passes, and count the forced close as a shutdown.
func TestStreamShutdownHonorsDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := startServer(t, service.Config{}, Config{Registry: reg})
	client, server := net.Pipe()
	sc := newServerConn(srv, server)
	srv.mu.Lock()
	srv.conns[sc] = struct{}{}
	srv.mu.Unlock()
	srv.mConns.Add(1)
	srv.wg.Add(1)
	go sc.serve()
	rc := handshakeRaw(t, client)
	ch := rc.open("deaf", 2, "p")
	for seq := uint64(1); seq <= 10; seq++ {
		if err := rc.fc.writeFrame(eventsFrame(ch, seq, 1)); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown: %v, want the context's deadline error", err)
		}
	case <-time.After(1500 * time.Millisecond):
		t.Fatal("shutdown outlived its 500ms deadline by a second")
	}
	if got := reg.Counter("rdt_stream_conn_closes_total", "reason", "shutdown").Value(); got != 1 {
		t.Errorf("closes{reason=shutdown} = %d, want 1", got)
	}
}

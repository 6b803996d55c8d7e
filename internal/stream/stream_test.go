package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/wal"
)

// pipeConns returns two ends of a real TCP connection (net.Pipe has no
// buffering, which deadlocks single-goroutine write-then-read tests).
func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close() //nolint:errcheck
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	if cerr != nil {
		t.Fatalf("dial: %v", cerr)
	}
	<-done
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { client.Close(); server.Close() }) //nolint:errcheck
	return client, server
}

func TestFrameRoundTrip(t *testing.T) {
	c, s := pipeConns(t)
	w := newFrameConn(c)
	r := newFrameConn(s)
	payloads := [][]byte{
		{0x01},
		[]byte("hello frames"),
		make([]byte, 64*1024),
	}
	for i := range payloads[2] {
		payloads[2][i] = byte(i)
	}
	for _, p := range payloads {
		if err := w.writeFrame(p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := r.readFrame()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch: %d bytes vs %d", i, len(got), len(want))
		}
	}
}

func TestFrameBadCRC(t *testing.T) {
	c, s := pipeConns(t)
	r := newFrameConn(s)
	// Hand-build a frame with a wrong checksum.
	hdr := []byte{3, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	if _, err := c.Write(append(hdr, 'a', 'b', 'c')); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := r.readFrame(); !errors.Is(err, errBadCRC) {
		t.Fatalf("read: %v, want CRC mismatch", err)
	}
}

func TestFrameTooBigRejectedWithoutReading(t *testing.T) {
	c, s := pipeConns(t)
	r := newFrameConn(s)
	// Claimed length far beyond the limit; no payload follows — the
	// reader must fail on the header alone, not try to allocate or read.
	hdr := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	if _, err := c.Write(hdr); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err := r.readFrame()
	var tooBig errFrameTooBig
	if !errors.As(err, &tooBig) {
		t.Fatalf("read: %v, want frame-too-big", err)
	}
	if cap(r.rbuf) != 0 {
		t.Fatalf("reader allocated %d bytes for an oversized frame", cap(r.rbuf))
	}
}

// TestFrameIsWALRecord: an RDTSTRM1 frame and a WAL record are the same
// bytes, so a frame a frameConn wrote scans as a WAL record, and a
// record the WAL appended reads back as a frame.
func TestFrameIsWALRecord(t *testing.T) {
	payload := []byte("one frame, two owners")
	framed := binenc.FrameHeaderSize + len(payload)

	c, s := pipeConns(t)
	if err := newFrameConn(c).writeFrame(payload); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	frame := make([]byte, framed)
	if _, err := io.ReadFull(s, frame); err != nil {
		t.Fatalf("read frame bytes: %v", err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	var scanned [][]byte
	end, torn, err := wal.ScanFrom(path, 0, func(p []byte) error {
		scanned = append(scanned, append([]byte(nil), p...))
		return nil
	})
	if err != nil || torn || end != int64(framed) || len(scanned) != 1 || !bytes.Equal(scanned[0], payload) {
		t.Fatalf("frame scanned as %q end %d torn %v err %v", scanned, end, torn, err)
	}

	path = filepath.Join(t.TempDir(), "wal.log")
	l, err := wal.OpenAppend(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append(payload); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	record, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if _, err := c.Write(record); err != nil {
		t.Fatalf("write record bytes: %v", err)
	}
	got, err := newFrameConn(s).readFrame()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("record read back as %q, %v", got, err)
	}
}

// TestStreamWireGolden pins the client's OPEN, EVENTS (every op, both
// checkpoint kinds) and SEAL frames — length, CRC and payload — to the
// bytes the client wrote when the stream package still held its own
// event codec: the codec moved into the service without moving a byte.
func TestStreamWireGolden(t *testing.T) {
	golden := []struct{ name, hex string }{
		{"OPEN", "0e0000001da699f70106676f6c64656e030470726f64"},
		{"EVENTS", "1e000000b0864a9502018180808080808080800005010000010201010100020102ac0203ac02"},
		{"SEAL", "03000000898bd378030102"},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close() //nolint:errcheck
	frames := make(chan []byte, len(golden))
	go func() {
		defer close(frames)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close() //nolint:errcheck
		fc := newFrameConn(c)
		if _, err := io.ReadFull(c, make([]byte, len(Magic))); err != nil {
			return
		}
		_ = fc.writeHello()
		for range golden {
			frame := make([]byte, binenc.FrameHeaderSize)
			if _, err := io.ReadFull(c, frame); err != nil {
				return
			}
			frame = append(frame, make([]byte, binary.LittleEndian.Uint32(frame))...)
			if _, err := io.ReadFull(c, frame[binenc.FrameHeaderSize:]); err != nil {
				return
			}
			frames <- frame
			if frame[binenc.FrameHeaderSize] == frameOpen {
				ok := binenc.AppendString(binenc.AppendUvarint([]byte{frameOpenOK}, 1), "golden")
				ok = binenc.AppendInt(binenc.AppendUvarint(binenc.AppendInt(ok, 3), 1), DefaultWindow)
				_ = fc.writeFrame(ok)
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	ch, err := c.Open("golden", 3, "prod")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := ch.Send([]service.Event{
		{Op: service.OpCheckpoint, Proc: 0},
		{Op: service.OpCheckpoint, Proc: 2, Kind: "forced"},
		{Op: service.OpCheckpoint, Proc: 1, Kind: "basic"},
		{Op: service.OpSend, Proc: 1, Peer: 2, Msg: 300},
		{Op: service.OpDeliver, Msg: 300},
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := ch.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	for _, g := range golden {
		if got := hex.EncodeToString(<-frames); got != g.hex {
			t.Errorf("%s frame\n  got  %s\n  want %s", g.name, got, g.hex)
		}
	}
}

// TestStreamServerWireGolden pins the server's frames of version 2:
// HELLO, a cumulative ACK, and an ERROR in each of its three scopes.
func TestStreamServerWireGolden(t *testing.T) {
	golden := []struct{ name, hex string }{
		{"HELLO", "080000006d5863bf8102808001808040"},
		{"ACK", "040000003f713d2f83010102"},
		{"open refusal (scope 0)", "36000000576efc058404003273657373696f6e2022676f6c64656e222068617320332070726f6365737365732c206f70656e2061736b656420666f722032"},
		{"channel error (scope 1)", "31000000cac94a2f8405012d73657175656e6365206761703a2070726f6475636572202270222073656e742073657120352061667465722031"},
		{"connection abort (connScope)", "29000000df55e81d8403ffffffffffffffffff011c7365616c20666f7220756e6f70656e6564206368616e6e656c203432"},
	}
	_, srv := startServer(t, service.Config{}, Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close() //nolint:errcheck
	fc := newFrameConn(conn)
	if _, err := conn.Write([]byte(Magic)); err != nil {
		t.Fatalf("magic: %v", err)
	}
	open := func(n int) []byte {
		return binenc.AppendString(binenc.AppendInt(binenc.AppendString([]byte{frameOpen}, "golden"), n), "p")
	}
	// Each request is answered before the next is written, and each
	// answer after the first OPENOK is one row of the table.
	requests := [][]byte{nil, open(3), eventsFrame(1, 1, 2), open(2), eventsFrame(1, 5, 1),
		binenc.AppendUvarint(binenc.AppendUvarint([]byte{frameSeal}, 42), 1)}
	var got []string
	for i, req := range requests {
		if req != nil {
			if err := fc.writeFrame(req); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		payload, err := fc.readFrame()
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if payload[0] != frameOpenOK {
			got = append(got, hex.EncodeToString(binenc.AppendFrame(nil, payload)))
		}
	}
	for i, g := range golden {
		if got[i] != g.hex {
			t.Errorf("%s frame\n  got  %s\n  want %s", g.name, got[i], g.hex)
		}
	}
}

func TestTrafficDeterministicAndValid(t *testing.T) {
	for _, shape := range TrafficShapes {
		for _, n := range []int{1, 2, 3, 5, 8} {
			tr1, err := NewTraffic(shape, n, 42)
			if err != nil {
				t.Fatalf("%s/%d: %v", shape, n, err)
			}
			tr2, _ := NewTraffic(shape, n, 42)
			a := tr1.Next(nil, 2000)
			b := tr2.Next(nil, 2000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%d: same seed, different traffic", shape, n)
			}

			// Validity: a live session must apply every event.
			svc, err := service.New(service.Config{})
			if err != nil {
				t.Fatalf("%s/%d new service: %v", shape, n, err)
			}
			sess, err := svc.CreateSession("t", n)
			if err != nil {
				t.Fatalf("%s/%d create: %v", shape, n, err)
			}
			for i := 0; i < len(a); i += 100 {
				if err := sess.Enqueue(a[i : i+100]); err != nil {
					t.Fatalf("%s/%d enqueue: %v", shape, n, err)
				}
			}
			v := flushVerdict(t, sess)
			if v.State != service.StateActive || v.EventsApplied != int64(len(a)) {
				t.Fatalf("%s/%d: state %s err %q, applied %d/%d",
					shape, n, v.State, v.Error, v.EventsApplied, len(a))
			}
		}
	}
	if _, err := NewTraffic("bogus", 3, 1); err == nil {
		t.Error("accepted unknown shape")
	}
}

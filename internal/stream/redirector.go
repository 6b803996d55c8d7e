package stream

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
)

// Redirector is the stream wire's router front end: a listener that
// speaks just enough RDTSTRM1 to answer every OPEN with a MOVED error
// naming the session's owner, so a Pool client entering the cluster
// at the router lands on the right daemon in one hop. It never
// accepts events — the data path always runs client-to-owner.
type Redirector struct {
	ln    net.Listener
	owner func(sessionID string) (addr string, ok bool)
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// ServeRedirector starts a redirect-only stream listener on addr.
// owner resolves a session id to its owner's stream address; ok=false
// means the owner has no stream wire (reported as a session error).
func ServeRedirector(addr string, owner func(sessionID string) (string, bool)) (*Redirector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen %s: %w", addr, err)
	}
	rd := &Redirector{ln: ln, owner: owner}
	rd.wg.Add(1)
	go rd.acceptLoop()
	return rd, nil
}

// Addr returns the bound listen address.
func (rd *Redirector) Addr() string { return rd.ln.Addr().String() }

// Close stops the listener and waits for in-flight handshakes.
func (rd *Redirector) Close() error {
	rd.mu.Lock()
	rd.closed = true
	rd.mu.Unlock()
	err := rd.ln.Close()
	rd.wg.Wait()
	return err
}

func (rd *Redirector) acceptLoop() {
	defer rd.wg.Done()
	for {
		c, err := rd.ln.Accept()
		if err != nil {
			return
		}
		rd.wg.Add(1)
		go func() {
			defer rd.wg.Done()
			rd.serveConn(c)
		}()
	}
}

// serveConn handshakes and answers OPENs with MOVED until the client
// hangs up — which a Pool does right after its first redirect.
func (rd *Redirector) serveConn(c net.Conn) {
	defer c.Close() //nolint:errcheck
	fc := newFrameConn(c)
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(fc.r, magic[:]); err != nil || string(magic[:]) != Magic {
		return
	}
	if err := fc.writeHello(); err != nil {
		return
	}
	for {
		_ = c.SetDeadline(time.Now().Add(30 * time.Second))
		payload, err := fc.readFrame()
		if err != nil {
			return
		}
		r := binenc.NewReader(payload)
		if typ := r.Byte(); typ != frameOpen {
			_ = fc.writeError(connScope, CodeSession, "redirector: only OPEN is served here")
			return
		}
		id := r.String()
		r.Int()        // n: unused, the owner validates it
		_ = r.String() // producer
		if err := r.Done(); err != nil {
			_ = fc.writeError(connScope, CodeMalformed, "open: "+err.Error())
			return
		}
		addr, ok := rd.owner(id)
		if !ok {
			_ = fc.writeError(0, CodeSession, fmt.Sprintf("session %q: owner has no stream wire", id))
			continue
		}
		_ = fc.writeError(0, CodeMoved, addr)
	}
}

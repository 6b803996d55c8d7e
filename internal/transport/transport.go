// Package transport provides the message transport of the concurrent
// runtime: an in-process transport built on goroutines that delivers
// frames asynchronously and reliably with unpredictable (but finite)
// delays, matching the channel model of the paper — and the fault,
// reliability and instrumentation layers that wrap it.
package transport

import "errors"

// Frame is one addressed, opaque message. The runtime encodes the
// application payload and the protocol piggyback into Data.
type Frame struct {
	From int
	To   int
	Data []byte
}

// Handler consumes delivered frames. Handlers must be quick and must not
// block: they typically enqueue into the destination process's mailbox.
type Handler func(Frame)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport is closed")

// Transport moves frames between processes.
type Transport interface {
	// Register installs the delivery handler for a process. All processes
	// must be registered before frames are sent to them.
	Register(proc int, h Handler) error
	// Send queues the frame for asynchronous delivery. It never blocks on
	// the receiver.
	Send(f Frame) error
	// Close stops the transport and waits for in-flight deliveries to
	// drain.
	Close() error
}

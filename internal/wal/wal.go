// Package wal implements the per-session append-only write-ahead log
// of the checking service: length-prefixed, CRC32C-checksummed records
// made durable by a Sync that may cover many appends, with a replay
// scanner that stops at — and a truncator that removes — any torn or
// corrupt tail.
//
// The frame of one record is binenc's CRC32C frame, the one RDTSTRM1
// speaks on the wire:
//
//	4 bytes  payload length, little endian
//	4 bytes  CRC32C (Castagnoli) of the payload
//	n bytes  payload
//
// Payloads are opaque to this package; the service encodes event
// batches and seal markers into them. A record is committed once its
// Append and a later Sync have both returned: the bytes are then on the
// medium, and a later ScanFrom is guaranteed to return the record. A
// crash between Append and Sync may leave each unsynced frame complete,
// partial, or absent — all valid outcomes the scanner resolves by
// returning the longest valid prefix.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/storage"
)

const (
	// HeaderSize is the frame overhead of one record (length + CRC): a
	// record with an n-byte payload occupies HeaderSize+n bytes of log.
	HeaderSize = binenc.FrameHeaderSize
	// MaxRecord bounds one record payload. A length field beyond it is
	// treated as corruption, so a flipped bit in the length cannot make
	// the scanner attempt a multi-gigabyte allocation.
	MaxRecord = 16 << 20
)

// ErrRecordSize is returned by Append for empty or oversized payloads.
var ErrRecordSize = errors.New("wal: record payload size out of range")

// Log is an open write-ahead log positioned for appending. A Log is not
// safe for concurrent use; the service's per-session worker is its only
// writer.
type Log struct {
	path string
	f    *os.File
	off  int64
	buf  []byte
}

// OpenAppend opens the log at path for appending, creating it (and
// syncing the parent directory so the creation is durable) if it does
// not exist. Callers recovering an existing log must ScanFrom (and
// Truncate a torn tail) first, so the append position starts on a
// record boundary.
func OpenAppend(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	if st.Size() == 0 {
		if err := storage.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	return &Log{path: path, f: f, off: st.Size()}, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Offset returns the current end of the log in bytes — the offset the
// next record's frame will start at.
func (l *Log) Offset() int64 { return l.off }

// Append writes one record frame. It does not sync; call Sync before
// treating the record as committed. On a write error the log's offset
// still advances by the bytes written, so the caller knows the tail may
// be torn — the expected reaction is to stop writing (degrade) and let
// the next recovery truncate.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrRecordSize, len(payload))
	}
	l.buf = binenc.AppendFrame(l.buf[:0], payload)
	n, err := l.f.Write(l.buf)
	l.off += int64(n)
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// Sync flushes appended records to the medium.
func (l *Log) Sync() error {
	if err := storage.SyncFile(l.f); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close closes the log file. Further Appends fail.
func (l *Log) Close() error { return l.f.Close() }

// ScanFrom replays the log from byte offset from, invoking fn with each
// record payload (the slice is reused between calls; fn must not retain
// it). It returns the offset just past the last valid record, whether
// the scan stopped early because the tail is torn or corrupt (short
// frame, absurd length, CRC mismatch), and any error from fn or the
// medium. An fn error aborts the scan with end just past the offending
// record and torn false.
//
// A missing file is an empty log: (0, from > 0, nil) — torn only if the
// caller expected records before from that do not exist.
func ScanFrom(path string, from int64, fn func(payload []byte) error) (end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, from > 0, nil
		}
		return 0, false, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	size := st.Size()
	if from > size {
		// The log holds fewer bytes than the caller expected to skip;
		// nothing sound to replay.
		return from, true, nil
	}
	off := from
	var header [HeaderSize]byte
	var payload []byte
	for off < size {
		if size-off < HeaderSize {
			return off, true, nil
		}
		if _, err := f.ReadAt(header[:], off); err != nil {
			return off, true, nil
		}
		n, want := binenc.ParseFrameHeader(header[:])
		length := int64(n)
		if length == 0 || length > MaxRecord || off+HeaderSize+length > size {
			return off, true, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := f.ReadAt(payload, off+HeaderSize); err != nil {
			return off, true, nil
		}
		if binenc.FrameSum(payload) != want {
			return off, true, nil
		}
		off += HeaderSize + length
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, err
			}
		}
	}
	return off, false, nil
}

// Truncate cuts the log at end — the valid-prefix boundary ScanFrom
// reported — and syncs the file and its directory, so the removal of
// the torn tail is itself durable. Truncating at or beyond the current
// size is a no-op (truncation must never extend a log).
func Truncate(path string, end int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) && end == 0 {
			return nil
		}
		return fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if st.Size() <= end {
		return nil
	}
	if err := f.Truncate(end); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if err := storage.SyncFile(f); err != nil {
		return fmt.Errorf("wal: sync %s: %w", path, err)
	}
	return storage.SyncDir(filepath.Dir(path))
}

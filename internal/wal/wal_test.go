package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
)

func appendAll(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func scanAll(t *testing.T, path string, from int64) (recs [][]byte, end int64, torn bool) {
	t.Helper()
	end, torn, err := ScanFrom(path, from, func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return recs, end, torn
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenAppend(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := [][]byte{[]byte("one"), []byte("two two"), bytes.Repeat([]byte{0xAB}, 1000)}
	appendAll(t, l, want...)
	off := l.Offset()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recs, end, torn := scanAll(t, path, 0)
	if torn {
		t.Fatal("clean log reported torn")
	}
	if end != off {
		t.Fatalf("scan end %d, want append offset %d", end, off)
	}
	if len(recs) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}

	// Reopen resumes at the end, and a scan from a mid-log offset sees
	// only the suffix.
	l2, err := OpenAppend(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Offset() != off {
		t.Fatalf("reopened offset %d, want %d", l2.Offset(), off)
	}
	appendAll(t, l2, []byte("four"))
	l2.Close()
	recs, _, torn = scanAll(t, path, off)
	if torn || len(recs) != 1 || string(recs[0]) != "four" {
		t.Fatalf("suffix scan = %q (torn=%v), want [four]", recs, torn)
	}
}

func TestAppendRejectsBadSizes(t *testing.T) {
	l, err := OpenAppend(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if err := l.Append(nil); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("empty append: %v, want ErrRecordSize", err)
	}
	if err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("oversized append: %v, want ErrRecordSize", err)
	}
	if l.Offset() != 0 {
		t.Fatalf("offset moved to %d on rejected appends", l.Offset())
	}
}

// TestTornTailTruncation: every way a tail can be damaged — a partial
// header, a partial payload, a flipped payload bit, a flipped length —
// truncates to the last valid prefix; records before it survive.
func TestTornTailTruncation(t *testing.T) {
	mangle := []struct {
		name string
		do   func(t *testing.T, path string, goodEnd, size int64)
	}{
		{"partial header", func(t *testing.T, path string, goodEnd, size int64) {
			truncateFile(t, path, goodEnd+3)
		}},
		{"partial payload", func(t *testing.T, path string, goodEnd, size int64) {
			truncateFile(t, path, size-2)
		}},
		{"payload bit flip", func(t *testing.T, path string, goodEnd, size int64) {
			flipByte(t, path, size-1)
		}},
		{"length bit flip", func(t *testing.T, path string, goodEnd, size int64) {
			flipByte(t, path, goodEnd)
		}},
	}
	for _, tc := range mangle {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, err := OpenAppend(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			appendAll(t, l, []byte("keep-1"), []byte("keep-2"))
			goodEnd := l.Offset()
			appendAll(t, l, []byte("doomed"))
			size := l.Offset()
			l.Close()

			tc.do(t, path, goodEnd, size)
			recs, end, torn := scanAll(t, path, 0)
			if !torn {
				t.Fatal("damaged tail not reported torn")
			}
			if end != goodEnd {
				t.Fatalf("valid prefix ends at %d, want %d", end, goodEnd)
			}
			if len(recs) != 2 {
				t.Fatalf("scanned %d records, want 2", len(recs))
			}
			if err := Truncate(path, end); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			recs, end2, torn := scanAll(t, path, 0)
			if torn || end2 != goodEnd || len(recs) != 2 {
				t.Fatalf("post-truncate scan: %d records end %d torn %v", len(recs), end2, torn)
			}
			// And the log accepts new records after the repair.
			l2, err := OpenAppend(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			appendAll(t, l2, []byte("after"))
			l2.Close()
			recs, _, torn = scanAll(t, path, 0)
			if torn || len(recs) != 3 || string(recs[2]) != "after" {
				t.Fatalf("post-repair append: %q torn %v", recs, torn)
			}
		})
	}
}

func TestScanCRCCoversPayload(t *testing.T) {
	// A hand-built frame with a wrong CRC is rejected even though the
	// length is plausible.
	path := filepath.Join(t.TempDir(), "wal.log")
	payload := []byte("payload")
	frame := binenc.AppendFrame(nil, payload)
	frame[4] ^= 1 // the CRC's low byte
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	recs, end, torn := scanAll(t, path, 0)
	if !torn || end != 0 || len(recs) != 0 {
		t.Fatalf("bad-CRC frame scanned as %d records end %d torn %v", len(recs), end, torn)
	}
}

func TestScanMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.log")
	end, torn, err := ScanFrom(path, 0, nil)
	if err != nil || torn || end != 0 {
		t.Fatalf("missing log from 0: end %d torn %v err %v", end, torn, err)
	}
	end, torn, err = ScanFrom(path, 10, nil)
	if err != nil || !torn {
		t.Fatalf("missing log from 10: end %d torn %v err %v", end, torn, err)
	}
	if err := Truncate(path, 0); err != nil {
		t.Fatalf("truncate missing at 0: %v", err)
	}
}

func TestScanFnErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenAppend(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, l, []byte("a"), []byte("b"), []byte("c"))
	l.Close()
	calls := 0
	boom := errors.New("boom")
	_, torn, err := ScanFrom(path, 0, func([]byte) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || torn {
		t.Fatalf("fn error: err %v torn %v", err, torn)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2", calls)
	}
}

func TestTruncateNeverExtends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenAppend(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, l, []byte("x"))
	size := l.Offset()
	l.Close()
	if err := Truncate(path, size+100); err != nil {
		t.Fatalf("truncate beyond end: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Size() != size {
		t.Fatalf("truncate extended the log to %d, want %d", st.Size(), size)
	}
}

func truncateFile(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatalf("truncate %s: %v", path, err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if off >= int64(len(data)) {
		t.Fatalf("flip offset %d beyond %d", off, len(data))
	}
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", path, err)
	}
}

// TestManyRecordsOffsets: offsets reported by the log line up with the
// scanner's frame boundaries for a few hundred records of mixed sizes.
func TestManyRecordsOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenAppend(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var ends []int64
	for i := 0; i < 300; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte("x"), i%17)))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		ends = append(ends, l.Offset())
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	l.Close()
	for _, from := range []int64{0, ends[99], ends[298]} {
		want := 0
		for _, e := range ends {
			if e > from {
				want++
			}
		}
		recs, end, torn := scanAll(t, path, from)
		if torn || len(recs) != want || end != ends[len(ends)-1] {
			t.Fatalf("scan from %d: %d records (want %d) end %d torn %v", from, len(recs), want, end, torn)
		}
	}
}

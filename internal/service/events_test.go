package service

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/wal"
)

// goldenEvents are the events of the stream wire's golden EVENTS frame
// (internal/stream TestStreamWireGolden), whose event bytes are
// goldenEventBytes.
var goldenEvents = []Event{
	{Op: OpCheckpoint, Proc: 0},
	{Op: OpCheckpoint, Proc: 2, Kind: "forced"},
	{Op: OpCheckpoint, Proc: 1, Kind: "basic"},
	{Op: OpSend, Proc: 1, Peer: 2, Msg: 300},
	{Op: OpDeliver, Msg: 300},
}

const goldenEventBytes = "010000010201010100020102ac0203ac02"

func TestEventCodecRoundTrip(t *testing.T) {
	cases := []struct {
		in   Event
		want event
	}{
		{Event{Op: OpCheckpoint, Proc: 0}, event{op: opCheckpoint}},
		{Event{Op: OpCheckpoint, Proc: 3, Kind: "basic"}, event{op: opCheckpoint, proc: 3}},
		{Event{Op: OpCheckpoint, Proc: 7, Kind: "forced"}, event{op: opCheckpoint, proc: 7, forced: true}},
		{Event{Op: OpSend, Proc: 1, Peer: 2, Msg: 40}, event{op: opSend, proc: 1, peer: 2, msg: 40}},
		{Event{Op: OpDeliver, Msg: 40, Proc: 2}, event{op: opDeliver, msg: 40}}, // a deliver's proc is not carried
		{Event{Op: OpSend, Proc: 1023, Peer: 0, Msg: 1 << 40}, event{op: opSend, proc: 1023, msg: 1 << 40}},
	}
	var buf []byte
	for i, tc := range cases {
		var err error
		if buf, err = AppendEvent(buf, &tc.in); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	r := binenc.NewReader(buf)
	for i, tc := range cases {
		var got event
		if err := readEvent(r, &got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != tc.want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, tc.want)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestEventCodecRejects(t *testing.T) {
	for _, ev := range []Event{
		{Op: "reset", Proc: 1},
		{Op: OpCheckpoint, Proc: -1},
		{Op: OpCheckpoint, Proc: 1, Kind: "weird"},
		{Op: OpSend, Proc: 0, Peer: 1, Msg: -7},
		{Op: OpSend, Proc: 0, Peer: 1, Kind: "basic"}, // a kind on a send, refused on both wires
		{Op: OpDeliver, Msg: 1, Peer: -1},
	} {
		if _, err := AppendEvent(nil, &ev); err == nil {
			t.Errorf("AppendEvent accepted %+v", ev)
		}
	}
	for name, b := range map[string][]byte{
		"unknown op byte":         {99},
		"unknown checkpoint kind": {opCheckpoint, 1, 9},
		"truncated send":          {opSend, 1},
	} {
		var got event
		if err := readEvent(binenc.NewReader(b), &got); err == nil {
			t.Errorf("readEvent accepted %s", name)
		}
	}
}

// TestRecordGolden pins the kind-2 record: a header, then the stream
// wire's event bytes as they are — so a streamed frame's events reach
// the WAL copied, not converted.
func TestRecordGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []Event
		seal   bool
		seq    uint64
		hex    string
	}{
		{"events", goldenEvents, false, 7, "020004" + hex.EncodeToString([]byte("prod")) + "0705" + goldenEventBytes},
		{"seal", nil, true, 8, "020104" + hex.EncodeToString([]byte("prod")) + "0800"},
	} {
		rec, err := encodeRecord(tc.events, tc.seal, "prod", tc.seq)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if got := hex.EncodeToString(rec.raw); got != tc.hex {
			t.Fatalf("%s record\n  got  %s\n  want %s", tc.name, got, tc.hex)
		}
		back, err := decodeRecord(rec.raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("%s: decoded %+v, want %+v", tc.name, back, rec)
		}
	}
}

// TestMalformedBatchRefusedAtAdmission: a batch holding an event no
// session could accept — an unknown op, a negative process — is refused
// whole by every in-process admission, counted as invalid, and changes
// nothing, across a passivate→reactivate too: it never reaches the WAL,
// and the live session does not differ from its reload.
func TestMalformedBatchRefusedAtAdmission(t *testing.T) {
	svc, reg := testService(t, Config{DataDir: t.TempDir()})
	sess := mustCreate(t, svc, "shape", 2)
	bad := [][]Event{
		{{Op: OpCheckpoint, Proc: 0}, {Op: "bogus"}, {Op: OpCheckpoint, Proc: 1}},
		{{Op: OpCheckpoint, Proc: 0}, {Op: OpCheckpoint, Proc: -1}, {Op: OpCheckpoint, Proc: 1}},
	}
	for i, events := range bad {
		if err := sess.Enqueue(events); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("Enqueue of batch %d: %v, want ErrInvalidEvent", i, err)
		}
		if _, err := sess.EnqueueSeq("p", 1, events, false, nil); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("EnqueueSeq of batch %d: %v, want ErrInvalidEvent", i, err)
		}
	}
	if got := reg.Snapshot().CounterValue("rdt_service_events_rejected_total", "reason", "invalid"); got != 12 {
		t.Fatalf("rejected{invalid} = %d, want 12", got)
	}
	for step := range []string{"live", "reactivated"} {
		if step == 1 {
			if !svc.Passivate("shape", "idle") {
				t.Fatal("passivate: session was not live")
			}
			var err error
			if sess, err = svc.Session("shape"); err != nil {
				t.Fatalf("reactivate: %v", err)
			}
		}
		if err := flush(t, sess); err != nil {
			t.Fatalf("%d: flush: %v", step, err)
		}
		if v := sess.Verdict(0); v.State != StateActive || v.EventsApplied != 0 || v.Error != "" {
			t.Fatalf("%d: state %q, %d applied, error %q: want active and untouched", step, v.State, v.EventsApplied, v.Error)
		}
		if got := sess.ProducerSeq("p"); got != 0 {
			t.Fatalf("%d: a refused frame advanced the producer to %d", step, got)
		}
	}
	if err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: 0}, {Op: OpCheckpoint, Proc: 1}}); err != nil {
		t.Fatalf("enqueue after the refusals: %v", err)
	}
	if err := flush(t, sess); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if v := sess.Verdict(0); v.State != StateActive || v.EventsApplied != 2 {
		t.Fatalf("state %q, %d applied; want active with 2", v.State, v.EventsApplied)
	}
}

// TestUnknownRecordKindQuarantines: a CRC-valid record of a kind this
// build does not know, in the middle of a WAL, is a newer format and not
// damage. Recovery quarantines the directory with every byte intact —
// nothing before or after the record is cut — and a handoff refuses the
// image.
func TestUnknownRecordKindQuarantines(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	svc, _ := newDurableService(dir)
	sess := mustCreate(t, svc, "future", 3)
	feed(t, rng, sess, genWorkload(rng, 3, 80))
	drainNow(t, svc)

	sessDir := filepath.Join(dir, "sessions", "future")
	walPath := filepath.Join(sessDir, "wal.log")
	var offsets []int64
	if _, _, err := wal.ScanFrom(walPath, 0, func(payload []byte) error {
		offsets = append(offsets, int64(wal.HeaderSize+len(payload)))
		return nil
	}); err != nil || len(offsets) < 2 {
		t.Fatalf("scan: %d records, %v", len(offsets), err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	mid := offsets[0] // the end of the first record
	payload := []byte{9, 0, 0, 0, 0}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	frame = append(frame, payload...)
	data = append(append(append([]byte(nil), data[:mid]...), frame...), data[mid:]...)
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := stateOfDir(sessDir); !errors.Is(err, errUnknownKind) {
		t.Fatalf("stateOfDir: %v, want an unknown record kind", err)
	}
	meta, err := os.ReadFile(filepath.Join(sessDir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	other, _ := newDurableService(t.TempDir())
	defer drainNow(t, other)
	if err := other.ImportSession("future", map[string][]byte{"meta.json": meta, "wal.log": data}); !errors.Is(err, errUnknownKind) {
		t.Fatalf("import: %v, want an unknown record kind", err)
	}

	rec, reg := newDurableService(dir)
	defer drainNow(t, rec)
	stats, err := rec.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.QuarantinedSessions != 1 || stats.Sessions != 0 || stats.Truncations != 0 {
		t.Fatalf("recover stats %+v: want the session quarantined, nothing truncated", stats)
	}
	if v := reg.Snapshot().CounterValue("rdt_wal_truncations_total"); v != 0 {
		t.Fatalf("rdt_wal_truncations_total = %d, want 0", v)
	}
	kept, err := os.ReadFile(filepath.Join(dir, "sessions", "future.corrupt", "wal.log"))
	if err != nil || string(kept) != string(data) {
		t.Fatalf("quarantined WAL: %d bytes (%v), want the %d bytes intact", len(kept), err, len(data))
	}
}

package service

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/binenc"
)

// FuzzDecodeEvents is the JSON ingest decoder's differential under the
// fuzzer: on any body the one-pass scanner and the encoding/json oracle
// it replaced must both refuse, or both accept the same events, which the
// scanner's record encodes as admission did (decodeDiff).
func FuzzDecodeEvents(f *testing.F) {
	for _, body := range jsonSeedCorpus {
		f.Add(body)
	}
	f.Add("[" + strings.Repeat(`{"op":"checkpoint","proc":0},`, 32) + `{"op":"checkpoint","proc":0}]`)
	f.Fuzz(func(t *testing.T, body string) {
		decodeDiff(t, []byte(body), 16)
	})
}

// FuzzDecodeRecord hammers the one record reader — behind replay, the
// pattern and the directory peek — with arbitrary payloads: it must never
// panic, the event count of anything it accepts is bounded by the input
// and is what the walk yields, and an accepted record re-encodes to the
// very bytes it was read from (kind 1 through the layout builds before
// kind 2 wrote). The reader, like every binenc reader, accepts a uvarint
// padded past its shortest form; such a record re-encodes to strictly
// fewer bytes that read back as the same record.
func FuzzDecodeRecord(f *testing.F) {
	v1, _ := hex.DecodeString("0100000006" + "0100000000" + "0200010000" + "0300000000" + "0100000000" + "0200000201" + "0300000001")
	f.Add(v1) // the first record of testdata/snapshotted's "killed" WAL
	for _, seed := range []struct {
		events   []Event
		seal     bool
		producer string
		seq      uint64
	}{
		{goldenEvents, false, "", 0},
		{nil, true, "", 0},
		{goldenEvents[:2], true, "producer-7", 1 << 33},
	} {
		rec, err := encodeRecord(seed.events, seed.seal, seed.producer, seed.seq)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.raw)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if 2*rec.count > len(payload) {
			t.Fatalf("%d events accepted from %d bytes", rec.count, len(payload))
		}
		out := reencode(t, &rec)
		if len(out) < len(payload) {
			back, err := decodeRecord(out)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if again := reencode(t, &back); !bytes.Equal(again, out) {
				t.Fatalf("kind-%d record reads back as\n  %x\nnot\n  %x", rec.kind, again, out)
			}
		} else if !bytes.Equal(out, payload) {
			t.Fatalf("kind-%d record re-encodes to\n  %x\nnot\n  %x", rec.kind, out, payload)
		}
	})
}

// reencode writes a decoded record back in its own kind's layout, every
// uvarint in its shortest form.
func reencode(t *testing.T, rec *record) []byte {
	out := newRecord(rec.seal, rec.producer, rec.seq, rec.count, 0).raw
	out[0] = rec.kind
	var e event
	n := 0
	for er := rec.reader(); er.next(&e); n++ {
		if rec.kind == recordV2 {
			out = e.appendTo(out)
			continue
		}
		out = append(out, e.op)
		out = binenc.AppendBool(out, e.forced)
		out = binenc.AppendInt(binenc.AppendInt(binenc.AppendInt(out, e.proc), e.peer), e.msg)
	}
	if n != rec.count {
		t.Fatalf("the walk yields %d events of %d", n, rec.count)
	}
	return out
}

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// oracleDecode is the ingest decode the one-pass scanner replaced:
// encoding/json into an []Event or an Event, trailing data refused, then
// every event's typed form. The scanner must agree with it on every body.
// A refusal of the body's JSON wraps errOracleJSON.
func oracleDecode(r io.Reader, maxBatch int) ([]Event, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("decode events: %w", err)
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, errors.New("decode events: empty body")
	}
	var events []Event
	if trimmed[0] == '[' {
		if err := strictUnmarshal(trimmed, &events); err != nil {
			return nil, fmt.Errorf("decode events: %w: %v", errOracleJSON, err)
		}
	} else {
		var ev Event
		if err := strictUnmarshal(trimmed, &ev); err != nil {
			return nil, fmt.Errorf("decode events: %w: %v", errOracleJSON, err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		return nil, errors.New("decode events: empty batch")
	}
	if len(events) > maxBatch {
		return nil, fmt.Errorf("decode events: %w: %d events, limit %d", ErrBatchTooLarge, len(events), maxBatch)
	}
	for i := range events {
		if _, err := events[i].typed(); err != nil {
			return nil, fmt.Errorf("decode events: event %d: %w", i, err)
		}
	}
	return events, nil
}

var errOracleJSON = errors.New("json")

// strictUnmarshal decodes one JSON value and rejects trailing data, so
// a concatenation of two bodies (a symptom of a confused client) is an
// error instead of a silent half-ingest.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after events")
	}
	return nil
}

// decodeDiff decodes body with the scanner and with the oracle and fails
// tb unless they agree: both refuse it, or both accept the same events
// and the scanner's record is the one admission made of the oracle's
// events. A refusal for anything but the JSON itself (an empty body or
// batch, a batch too large, an invalid event) must read the same. It
// reports whether the body was accepted.
func decodeDiff(tb testing.TB, body []byte, maxBatch int) bool {
	tb.Helper()
	want, wantErr := oracleDecode(bytes.NewReader(body), maxBatch)
	got, gotErr := DecodeEvents(bytes.NewReader(body), maxBatch)
	if (gotErr == nil) != (wantErr == nil) {
		tb.Fatalf("body %q (max batch %d):\n  scanner: %v\n  oracle:  %v", body, maxBatch, gotErr, wantErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, errOracleJSON) != strings.Contains(gotErr.Error(), "JSON offset") ||
			!errors.Is(wantErr, errOracleJSON) && gotErr.Error() != wantErr.Error() {
			tb.Fatalf("body %q (max batch %d) refused for different reasons:\n  scanner: %v\n  oracle:  %v",
				body, maxBatch, gotErr, wantErr)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("body %q:\n  scanner: %+v\n  oracle:  %+v", body, got, want)
	}
	rec, err := decodeBatch(bytes.NewReader(body), maxBatch)
	if err != nil {
		tb.Fatalf("body %q: decodeBatch: %v", body, err)
	}
	wantRec, err := encodeRecord(want, false, "", 0)
	if err != nil {
		tb.Fatalf("body %q: encodeRecord: %v", body, err)
	}
	if !reflect.DeepEqual(rec, wantRec) {
		tb.Fatalf("body %q:\n  scanner record %x\n  oracle record  %x", body, rec.raw, wantRec.raw)
	}
	return true
}

// jsonSeedCorpus holds every shape the scanner has a rule for, accepted
// and refused; the differential mutates it.
var jsonSeedCorpus = []string{
	`{"op":"checkpoint","proc":0}`,
	`{"op":"checkpoint","proc":2,"kind":"forced"}`,
	`{"op":"checkpoint","proc":1,"kind":"basic"}`,
	`{"op":"checkpoint","proc":1,"kind":""}`,
	`[{"op":"send","proc":0,"peer":1,"msg":0},{"op":"deliver","msg":0}]`,
	`[{"op":"send","proc":0,"peer":1,"msg":7},{"op":"deliver","msg":7,"proc":1},{"op":"checkpoint","proc":1}]`,
	` [ { "op" : "send" , "proc" : 3 , "peer" : 0 , "msg" : 12 } ]` + "\n",
	`[]`,
	`null`,
	`[null]`,
	`{}`,
	`{"OP":"send","Proc":0,"pEER":1,"MSG":2}`,
	`{"op":"checkpoint","proc":0,"Kind":"forced"}`,
	"{\"op\":\"checkpoint\",\"proc\":0,\"\u212aind\":\"forced\"}",
	`{"op":"checkpoint","proc":0,"\u212aind":"forced"}`,
	"{\"op\":\"deliver\",\"m\u017fg\":3}",
	`{"op":"deliver","m\u017Fg":3}`,
	`{"op":"checkpoint","x":[[1,[2.5e3,{"y":[null,true,false,"s"]}]],[]],"proc":0}`,
	`{"op":"checkpoint","x":{"op":"send","a":{"b":[-0.5E-3]}},"proc":0}`,
	`{"op":"checkpoint","x":"a\"b\\c\/d\b\f\n\r\t\u00e9\uD83D\uDE00","proc":0}`,
	`{"op":"checkpoint","x":"a\qb","proc":0}`,
	`{"op":"checkpoint","x":["\u12g4"],"proc":0}`,
	"{\"op\":\"checkpoint\",\"x\":\"tab\there\",\"proc\":0}",
	`{"op":"send","proc":0,"peer":null,"msg":1}`,
	`{"op":null,"proc":0}`,
	`{"op":"deliver","op":"checkpoint","proc":3}`,
	`{"op":"checkpoint","op":null,"proc":3,"proc":4}`,
	`{"op":"\u0073end","proc":0,"peer":1,"msg":2}`,
	`{"op":"s\u0065nd\n","proc":0}`,
	"{\"op\":\"send\xff\",\"proc\":0}",
	`{"op":"checkpoint","kind":"\u0066orced","proc":0}`,
	`{"op":"checkpoint","proc":1.0}`,
	`{"op":"checkpoint","proc":1e2}`,
	`{"op":"checkpoint","proc":"1"}`,
	`{"op":"checkpoint","proc":-0}`,
	`{"op":"deliver","msg":12345678901234567890}`,
	`{"op":"deliver","msg":9223372036854775807}`,
	`{"op":"deliver","msg":-9223372036854775808}`,
	`{"op":"deliver","msg":9223372036854775808}`,
	`{"op":"checkpoint","proc":01}`,
	`{"op":"checkpoint","proc":true}`,
	`{"op":1,"proc":0}`,
	`{"op":["send"],"proc":0}`,
	`{"op":"checkpoint","proc":{}}`,
	"\u00a0{\"op\":\"checkpoint\",\"proc\":0}\u00a0",
	"\v[{\"op\":\"checkpoint\",\"proc\":0}]\f",
	"{\"op\":\"checkpoint\",\u00a0\"proc\":0}",
	`[{"op":"checkpoint","proc":0},]`,
	`{"op":"checkpoint","proc":0,}`,
	`{"op":"checkpoint","proc":0} {"op":"checkpoint","proc":1}`,
	`[{"op":"checkpoint","proc":0}] []`,
	`[{"op":"checkpoint","proc":0},1]`,
	`[{"op":"send","proc":0,"peer":1,"msg":0}`,
	`{"op":"send","proc":1e9,"peer":-3,"msg":0.5}`,
	`{"op":"rollback","proc":0}`,
	`{"op":"checkpoint","proc":0,"kind":"initial"}`,
	`{"op":"send","proc":0,"peer":1,"msg":0,"kind":"basic"}`,
	`{"op":"checkpoint","proc":-1}`,
	`{"op":"deliver","msg":-4}`,
	`"checkpoint"`,
	`checkpoint please`,
	"[" + strings.Repeat(`{"op":"checkpoint","proc":0},`, 20) + `{"op":"checkpoint","proc":0}]`,
}

// deepJSON is an event whose unknown field nests n arrays: with the
// event object, n+1 containers deep.
func deepJSON(n int) string {
	return `{"op":"checkpoint","proc":0,"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + "}"
}

// jsonTokens are what mutateJSON splices in: every rule's trigger.
var jsonTokens = []string{
	"null", "true", "false", "0", "7", "-1", "-0", "1.0", "1e2", `"1"`,
	"12345678901234567890", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
	`"op"`, `"OP"`, `"Kind"`, "\"\u212aind\"", `"\u212aind"`, "\"m\u017fg\"", `"ms\u017f"`,
	`"send"`, `"\u0073end"`, `"checkpoint"`, `"deliver"`, `"forced"`, `"basic"`, `""`,
	",", ":", "[", "]", "{", "}", `"`, `\`, `\u`, " ", "\t", "\n", "\u00a0", "\v",
	"\xff", "\x00", `"\ud800"`, `"a\"b"`,
	`"proc":`, `"peer":1,`, `"msg":2,`, `"kind":"forced",`, `"x":[[1,{"y":null}]],`,
	`{"op":"checkpoint","proc":0}`, `null,`, `{"op":"send","proc":1,"peer":0,"msg":99},`,
}

// jsonFields are what mutateJSON adds to an object: known, unknown,
// duplicate and case-folded keys.
var jsonFields = []string{
	`"x":null,`, `"x":[1,{"y":[]}],`, `"op":null,`, `"OP":"send",`, `"Op":"checkpoint",`,
	`"proc":5,`, `"Proc":-0,`, `"peer":null,`, `"msg":3,`, `"kind":"basic",`, `"KIND":"forced",`,
	`"\u006bind":null,`, "\"\u212aind\":\"\",", `"":0,`,
}

// mutateJSON returns body with one to three random edits: half of them
// keep a well-formed body well-formed, the rest are any edit at all.
func mutateJSON(rng *rand.Rand, body []byte) []byte {
	const alphabet = "{}[]\":,-0123456789.eE+ \t\n\\unlrtfas"
	b := append([]byte(nil), body...)
	splice := func(at, end int, s string) {
		b = append(b[:at], append([]byte(s), b[end:]...)...)
	}
	edits := 1
	if rng.Intn(2) == 0 {
		edits += rng.Intn(3)
	}
	for ; edits > 0; edits-- {
		at := rng.Intn(len(b) + 1)
		switch rng.Intn(10) {
		case 0: // add a field after an object's brace
			if i := bytes.IndexByte(b[at:], '{'); i >= 0 {
				splice(at+i+1, at+i+1, jsonFields[rng.Intn(len(jsonFields))])
			}
		case 1: // add white space after a structural character
			if i := bytes.IndexAny(b[at:], "{}[]:,"); i >= 0 {
				splice(at+i+1, at+i+1, [...]string{" ", "\t", "\r\n", "\u00a0"}[rng.Intn(4)])
			}
		case 2: // change a letter's case
			if i := bytes.IndexFunc(b[at:], unicode.IsLetter); i >= 0 && b[at+i] < utf8.RuneSelf {
				b[at+i] ^= 0x20
			}
		case 3: // change a digit
			if i := bytes.IndexAny(b[at:], "0123456789"); i >= 0 {
				b[at+i] = "0123456789"[rng.Intn(10)]
			}
		case 4: // replace a byte
			if at < len(b) {
				if rng.Intn(4) == 0 {
					b[at] = byte(rng.Intn(256))
				} else {
					b[at] = alphabet[rng.Intn(len(alphabet))]
				}
			}
		case 5, 6: // insert a token
			splice(at, at, jsonTokens[rng.Intn(len(jsonTokens))])
		case 7: // delete a span
			splice(at, min(len(b), at+1+rng.Intn(8)), "")
		case 8: // duplicate a span
			span := string(b[at:min(len(b), at+1+rng.Intn(32))])
			to := rng.Intn(len(b) + 1)
			splice(to, to, span)
		default: // replace a span with a token
			splice(at, min(len(b), at+1+rng.Intn(6)), jsonTokens[rng.Intn(len(jsonTokens))])
		}
	}
	return b
}

// oracleIngest is the ingest handler before the scanner, fed by the
// oracle: decode, then Enqueue, which encodes the events at admission.
func (a *api) oracleIngest(w http.ResponseWriter, r *http.Request) {
	sess, ok := a.session(w, r)
	if !ok {
		return
	}
	if r.ContentLength > DefaultMaxBody {
		a.svc.reject(reasonInvalid, 1)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body %d bytes exceeds limit %d", r.ContentLength, DefaultMaxBody))
		return
	}
	events, err := oracleDecode(http.MaxBytesReader(w, r.Body, DefaultMaxBody), DefaultMaxBatch)
	if err != nil {
		a.svc.reject(reasonInvalid, 1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := sess.Enqueue(events); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Enqueued: len(events)})
}

package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unicode/utf8"
)

// The JSON ingest decoder. One pass over the body checks it by the rules
// encoding/json applies when it decodes into an Event or an []Event, and
// encodes each event in the binary encoding as its object closes, so the
// ingest handler builds the batch's record without a second pass. The
// rules it keeps:
//
//   - the whole JSON grammar, nesting at most encoding/json's 10000 deep;
//     a field the Event does not have is checked and ignored;
//   - a key names a field when it equals the field's name, or else when
//     it equals it under bytes.EqualFold: "OP", "Kind", and "kind" with
//     its k spelled as the Kelvin sign U+212A;
//   - of duplicate keys the last wins, and null leaves a field as it is
//     (an element that is null is an all-zero event);
//   - ids are integers by strconv.ParseInt(s, 10, 64): 1.0, 1e2, "1"
//     and anything past int64 are refused, as is any other type mismatch;
//   - bytes.TrimSpace on the body, and nothing may follow the value.
//
// Strings holding an escape or a byte past ASCII are unquoted by
// json.Unmarshal itself; every other string is its own value, and op and
// kind are interned to the package's constants, so the path allocates
// nothing per event.

// decodeScratch is reusable per-request decode state: the body, the
// batch and the batch's events in the binary encoding.
type decodeScratch struct {
	buf    []byte
	events []Event
	enc    []byte
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// DecodeEvents parses an ingest request body: either one event object
// or a JSON array of events, at most maxBatch of them (0 means the
// DefaultMaxBatch). Only the shape is validated here, by the binary
// encoding's rules (AppendEvent) — process ranges and message-id
// bookkeeping need session state and are checked at apply time. Callers
// bound the reader (the HTTP layer uses MaxBytesReader) so a hostile
// body cannot exhaust memory.
//
// The returned slice is freshly owned by the caller; DecodeEventsPooled
// is the same decode over pooled scratch.
func DecodeEvents(r io.Reader, maxBatch int) ([]Event, error) {
	sc := new(decodeScratch)
	if err := sc.decode(r, maxBatch); err != nil {
		return nil, err
	}
	return sc.events, nil
}

// DecodeEventsPooled is DecodeEvents over pooled scratch: the returned
// events share a recycled backing array, and the caller must invoke
// release exactly when the events are no longer referenced, to return
// the scratch to the pool. release is idempotent; on error there is
// nothing to release.
func DecodeEventsPooled(r io.Reader, maxBatch int) (events []Event, release func(), err error) {
	sc := decodePool.Get().(*decodeScratch)
	if err := sc.decode(r, maxBatch); err != nil {
		decodePool.Put(sc)
		return nil, nil, err
	}
	var once sync.Once
	return sc.events, func() { once.Do(func() { decodePool.Put(sc) }) }, nil
}

// decodeBatch is the ingest handler's decode: the body's events as the
// kind-2 record admission enqueues.
func decodeBatch(r io.Reader, maxBatch int) (record, error) {
	sc := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(sc)
	if err := sc.decode(r, maxBatch); err != nil {
		return record{}, err
	}
	rec := newRecord(false, "", 0, len(sc.events), len(sc.enc))
	rec.raw = append(rec.raw, sc.enc...)
	return rec, nil
}

func (sc *decodeScratch) decode(r io.Reader, maxBatch int) error {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	var err error
	sc.buf, err = readAllInto(sc.buf[:0], r)
	if err != nil {
		return fmt.Errorf("decode events: %w", err)
	}
	if err := sc.scan(bytes.TrimSpace(sc.buf), maxBatch); err != nil {
		return fmt.Errorf("decode events: %w", err)
	}
	return nil
}

// readAllInto is io.ReadAll reusing buf's capacity across requests.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 2048)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scan decodes body into sc.events and sc.enc. Its refusals come in
// encoding/json's order: the body's syntax and types, then the batch's
// size, then the first event no session could accept (typed).
func (sc *decodeScratch) scan(body []byte, maxBatch int) error {
	sc.events, sc.enc = sc.events[:0], sc.enc[:0]
	s := jsonScanner{data: body}
	n := 0
	var invalid error
	switch {
	case len(body) == 0:
		return errors.New("empty body")
	case body[0] != '[':
		var ev Event
		if s.event(&ev, 1) {
			invalid = sc.admit(&ev, 0, maxBatch, nil)
			n = 1
		}
	default:
		s.pos++
		if s.space(); s.eat(']') {
			break
		}
		for {
			var ev Event
			if !s.event(&ev, 2) {
				break
			}
			invalid = sc.admit(&ev, n, maxBatch, invalid)
			n++
			if s.space(); s.eat(',') {
				continue
			}
			if !s.eat(']') {
				s.fail("want ',' or ']' after an event")
			}
			break
		}
	}
	if s.space(); s.err == nil && s.pos < len(body) {
		s.fail("trailing data after events")
	}
	switch {
	case s.err != nil:
		return s.err
	case n == 0:
		return errors.New("empty batch")
	case n > maxBatch:
		return fmt.Errorf("%w: %d events, limit %d", ErrBatchTooLarge, n, maxBatch)
	}
	return invalid
}

// admit takes event i of the batch: its typed form goes onto sc.enc.
// Once the batch is refused anyway — an earlier event is invalid, or the
// batch is past maxBatch — the scan only counts the rest.
func (sc *decodeScratch) admit(ev *Event, i, maxBatch int, invalid error) error {
	if invalid != nil || i >= maxBatch {
		return invalid
	}
	e, err := ev.typed()
	if err != nil {
		return fmt.Errorf("event %d: %w", i, err)
	}
	sc.events = append(sc.events, *ev)
	sc.enc = e.appendTo(sc.enc)
	return nil
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// jsonScanner reads one JSON value from data. Its methods return false
// once err is set: the first syntax error, or the first value that
// encoding/json could not store in the Event field it names.
type jsonScanner struct {
	data []byte
	pos  int
	err  error
}

// The Event fields a key can name.
const (
	fieldNone = iota
	fieldOp
	fieldProc
	fieldPeer
	fieldMsg
	fieldKind
)

var fieldNames = [...][]byte{
	fieldOp:   []byte("op"),
	fieldProc: []byte("proc"),
	fieldPeer: []byte("peer"),
	fieldMsg:  []byte("msg"),
	fieldKind: []byte("kind"),
}

// keyWords are the field names as encoders write them, the quotes and
// the colon included, each in the low bytes of a little-endian word:
// key's fast path matches one with a single compare.
var keyWords = func() (w [len(fieldNames)]struct {
	word, mask uint64
	len        int
}) {
	for f := fieldOp; f < len(fieldNames); f++ {
		var b [8]byte
		n := copy(b[:], `"`+string(fieldNames[f])+`":`)
		w[f].word, w[f].mask, w[f].len = binary.LittleEndian.Uint64(b[:]), 1<<(8*n)-1, n
	}
	return w
}()

// The values op and kind are interned to.
var (
	opNames   = []string{OpCheckpoint, OpSend, OpDeliver}
	kindNames = []string{"", "basic", "forced"}
)

func (s *jsonScanner) fail(what string) bool {
	if s.err == nil {
		s.err = fmt.Errorf("JSON offset %d: %s", s.pos, what)
	}
	return false
}

func (s *jsonScanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *jsonScanner) eat(c byte) bool {
	if s.peek() == c {
		s.pos++
		return true
	}
	return false
}

func (s *jsonScanner) space() {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return
	}
	for ; s.pos < len(s.data); s.pos++ {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// event reads one event into ev, which is zero: an object, or null,
// which leaves it zero. depth is the object's nesting depth.
func (s *jsonScanner) event(ev *Event, depth int) bool {
	s.space()
	switch s.peek() {
	case '{':
		return s.object(ev, depth)
	case 'n':
		return s.literal("null")
	}
	return s.fail("want an event object")
}

func (s *jsonScanner) object(ev *Event, depth int) bool {
	s.pos++ // {
	if s.space(); s.eat('}') {
		return true
	}
	for {
		field, ok := s.key()
		if !ok {
			return false
		}
		switch field {
		case fieldOp:
			ok = s.stringField(&ev.Op, opNames)
		case fieldProc:
			ok = s.intField(&ev.Proc)
		case fieldPeer:
			ok = s.intField(&ev.Peer)
		case fieldMsg:
			ok = s.intField(&ev.Msg)
		case fieldKind:
			ok = s.stringField(&ev.Kind, kindNames)
		default:
			ok = s.skip(depth)
		}
		if !ok {
			return false
		}
		if s.space(); s.eat(',') {
			s.space()
			continue
		}
		if s.eat('}') {
			return true
		}
		return s.fail("want ',' or '}' after an object value")
	}
}

// key reads an object key and its colon, and says which field it names:
// the one whose name it equals, else the one it equals under
// bytes.EqualFold, else none. No two names fold together, so matching
// under EqualFold alone is the same; keyWords is the fast path.
func (s *jsonScanner) key() (int, bool) {
	if s.pos+8 <= len(s.data) {
		word := binary.LittleEndian.Uint64(s.data[s.pos:])
		for f := fieldOp; f < len(keyWords); f++ {
			if k := &keyWords[f]; word&k.mask == k.word {
				s.pos += k.len
				s.space()
				return f, true
			}
		}
	}
	if s.peek() != '"' {
		return fieldNone, s.fail("want an object key")
	}
	tok, plain, ok := s.str()
	if !ok {
		return fieldNone, false
	}
	if s.space(); !s.eat(':') {
		return fieldNone, s.fail("want ':' after an object key")
	}
	s.space()
	name, ok := s.unquote(tok, plain)
	if !ok {
		return fieldNone, false
	}
	for f := fieldOp; f < len(fieldNames); f++ {
		if bytes.EqualFold(name, fieldNames[f]) {
			return f, true
		}
	}
	return fieldNone, true
}

// unquote is a string token's value: its bytes between the quotes when
// plain, else what json.Unmarshal makes of it.
func (s *jsonScanner) unquote(tok []byte, plain bool) ([]byte, bool) {
	if plain {
		return tok[1 : len(tok)-1], true
	}
	var v string
	if err := json.Unmarshal(tok, &v); err != nil {
		return nil, s.fail(err.Error())
	}
	return []byte(v), true
}

// stringField stores a string in *dst, interned to the one of names it
// equals. null leaves *dst as it is; any other value is a type mismatch.
func (s *jsonScanner) stringField(dst *string, names []string) bool {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '"':
	default:
		return s.fail("want a string")
	}
	tok, plain, ok := s.str()
	if !ok {
		return false
	}
	v, ok := s.unquote(tok, plain)
	if !ok {
		return false
	}
	for _, name := range names {
		if string(v) == name {
			*dst = name
			return true
		}
	}
	*dst = string(v)
	return true
}

// intField stores an integer in *dst, parsed in place by the rules of
// strconv.ParseInt(s, 10, 64) that encoding/json applies: a number with
// a fraction or an exponent is a type mismatch, as is one outside int64
// (and int). null leaves *dst as it is.
func (s *jsonScanner) intField(dst *int) bool {
	c := s.peek()
	if c == 'n' {
		return s.literal("null")
	}
	i := s.pos
	neg := c == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(s.data) && isDigit(s.data[i]); i++ {
		u = u*10 + uint64(s.data[i]-'0') // wraps past 19 digits, refused below
	}
	s.pos = i
	switch {
	case i == start || s.data[start] == '0' && i > start+1:
		return s.fail("want an integer")
	case i < len(s.data) && (s.data[i] == '.' || s.data[i] == 'e' || s.data[i] == 'E'):
		return s.fail("want an integer, not a fraction or an exponent")
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	n := int64(u)
	if neg {
		n = -n
	}
	if i-start > 19 || u > limit || int64(int(n)) != n {
		return s.fail("integer out of range")
	}
	*dst = int(n)
	return true
}

// strPlain marks the bytes that stand for themselves in a string: ASCII
// from the space on, but for the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads the string token at s.pos, quotes included. plain says it
// holds no escape and no byte past ASCII, so it is its own value.
func (s *jsonScanner) str() (tok []byte, plain, ok bool) {
	start, i := s.pos, s.pos+1
	for i < len(s.data) && strPlain[s.data[i]] {
		i++
	}
	plain = true
	for i < len(s.data) {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:s.pos], plain, true
		case c == '\\':
			n := escapeLen(s.data[i:])
			if n == 0 {
				s.pos = i
				return nil, false, s.fail("invalid escape in string")
			}
			plain = false
			i += n
		case c < ' ':
			s.pos = i
			return nil, false, s.fail("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	s.pos = len(s.data)
	return nil, false, s.fail("unterminated string")
}

// escapeLen is the length of the escape b starts with, 0 if it is none.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(b) >= 6 && isHex(b[2]) && isHex(b[3]) && isHex(b[4]) && isHex(b[5]) {
			return 6
		}
	}
	return 0
}

// skip checks the value of a key no field takes: any JSON value, whose
// containers nest at most maxJSONDepth deep counting the depth that
// encloses it.
func (s *jsonScanner) skip(depth int) bool {
	switch c := s.peek(); {
	case c == '"':
		_, _, ok := s.str()
		return ok
	case c == '{' || c == '[':
		if depth >= maxJSONDepth {
			return s.fail("exceeded max depth")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		s.pos++
		if s.space(); s.eat(end) {
			return true
		}
		for {
			if c == '{' {
				if s.peek() != '"' {
					return s.fail("want an object key")
				}
				if _, _, ok := s.str(); !ok {
					return false
				}
				if s.space(); !s.eat(':') {
					return s.fail("want ':' after an object key")
				}
				s.space()
			}
			if !s.skip(depth + 1) {
				return false
			}
			if s.space(); s.eat(',') {
				s.space()
				continue
			}
			if s.eat(end) {
				return true
			}
			return s.fail("want ',' or the container's end")
		}
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		return s.number()
	}
	return s.fail("want a value")
}

// number checks the number at s.pos by JSON's grammar.
func (s *jsonScanner) number() bool {
	i := s.pos
	if s.data[i] == '-' {
		i++
	}
	switch {
	case i < len(s.data) && s.data[i] == '0':
		i++
	case i < len(s.data) && isDigit(s.data[i]):
		i = s.digits(i)
	default:
		s.pos = i
		return s.fail("want a digit")
	}
	if i < len(s.data) && s.data[i] == '.' {
		if i = s.digits(i + 1); i < 0 {
			return false
		}
	}
	if i < len(s.data) && (s.data[i] == 'e' || s.data[i] == 'E') {
		i++
		if i < len(s.data) && (s.data[i] == '+' || s.data[i] == '-') {
			i++
		}
		if i = s.digits(i); i < 0 {
			return false
		}
	}
	s.pos = i
	return true
}

// digits is the end of the run of at least one digit at i, or -1 with
// the scan failed when there is none.
func (s *jsonScanner) digits(i int) int {
	start := i
	for i < len(s.data) && isDigit(s.data[i]) {
		i++
	}
	if i == start {
		s.pos = i
		s.fail("want a digit")
		return -1
	}
	return i
}

func (s *jsonScanner) literal(word string) bool {
	if end := s.pos + len(word); end <= len(s.data) && string(s.data[s.pos:end]) == word {
		s.pos = end
		return true
	}
	return s.fail("invalid literal")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

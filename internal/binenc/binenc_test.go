package binenc

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 1<<60)
	buf = AppendInt(buf, 42)
	buf = AppendInts(buf, []int{0, 1, 1 << 30})
	buf = AppendBytes(buf, []byte{9, 8, 7})
	buf = AppendString(buf, "hello")
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = append(buf, 0xAA, 0xBB)

	r := NewReader(buf)
	if v := r.Uvarint(); v != 1<<60 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := r.Int(); v != 42 {
		t.Fatalf("int = %d", v)
	}
	vs := r.Ints(10)
	if len(vs) != 3 || vs[2] != 1<<30 {
		t.Fatalf("ints = %v", vs)
	}
	if b := r.Bytes(); len(b) != 3 || b[0] != 9 {
		t.Fatalf("bytes = %v", b)
	}
	if s := r.String(); s != "hello" {
		t.Fatalf("string = %q", s)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if b := r.Take(2); len(b) != 2 || b[1] != 0xBB {
		t.Fatalf("take = %v", b)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("done: %v", err)
	}
}

func TestReaderFailsClosed(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *Reader)
		data []byte
	}{
		{"short byte", func(r *Reader) { r.Byte() }, nil},
		{"bad uvarint", func(r *Reader) { r.Uvarint() }, []byte{0x80}},
		{"bad bool", func(r *Reader) { r.Bool() }, []byte{2}},
		{"length out of range", func(r *Reader) { r.IntMax(3) }, AppendInt(nil, 4)},
		{"bytes beyond buffer", func(r *Reader) { r.Bytes() }, AppendInt(nil, 100)},
		{"take beyond buffer", func(r *Reader) { r.Take(3) }, []byte{1, 2}},
		{"take negative", func(r *Reader) { r.Take(-1) }, []byte{1, 2}},
		{"ints over limit", func(r *Reader) { r.Ints(2) }, AppendInts(nil, []int{1, 2, 3})},
		{"bad magic", func(r *Reader) { r.Expect([]byte("AB")) }, []byte("AX")},
		{"short magic", func(r *Reader) { r.Expect([]byte("AB")) }, []byte("A")},
		{"trailing bytes", func(r *Reader) {}, []byte{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.run(r)
			if err := r.Done(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			// Latched: later reads stay zero and do not panic.
			if v := r.Int(); v != 0 {
				t.Fatalf("read after failure = %d", v)
			}
		})
	}
}

func TestAppendIntPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative int")
		}
	}()
	AppendInt(nil, -1)
}

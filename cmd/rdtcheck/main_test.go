package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/trace"
)

func figureFile(t *testing.T) string {
	t.Helper()
	p, err := trace.Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fig1.json")
	if err := trace.SaveFile(path, p); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

func TestCheckFigure1Fixture(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"RDT property: false", "C{2,1} ~> C{0,2}", "consistent with offline"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestCheckExplain(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure1", "-explain"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"RDT property: false", "witness:", "~>"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// -explain -dot renders the diagram with the witness highlighted.
	out.Reset()
	if err := run([]string{"-figure1", "-explain", "-dot"}, &out); err != nil {
		t.Fatalf("run -dot: %v", err)
	}
	if !strings.Contains(out.String(), "color=red") {
		t.Errorf("witness DOT has no highlighting:\n%s", out.String())
	}
}

func TestCheckVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "rdtcheck dev (unknown)") {
		t.Errorf("unexpected version output %q", out.String())
	}
}

// TestCheckStdin feeds the trace through the "-" argument instead of a
// file and expects the identical analysis.
func TestCheckStdin(t *testing.T) {
	p, err := trace.Figure1()
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Save(&buf, p); err != nil {
		t.Fatalf("save: %v", err)
	}
	oldStdin := stdin
	stdin = &buf
	defer func() { stdin = oldStdin }()

	var out bytes.Buffer
	if err := run([]string{"-"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"RDT property: false", "C{2,1} ~> C{0,2}"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// A second "-" read on exhausted stdin fails loudly, not silently.
	if err := run([]string{"-"}, &out); err == nil {
		t.Error("empty stdin accepted")
	}
}

func TestCheckTraceFileWithQueries(t *testing.T) {
	path := figureFile(t)
	var out bytes.Buffer
	err := run([]string{"-min", "0,2", "-max", "2,1", "-line", "3,3,3", path}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"minimum consistent global checkpoint containing C{0,2}: {2,1,1}",
		"maximum consistent global checkpoint containing C{2,1}",
		"recovery line below {3,3,3}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestCheckDOT(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dot", "-figure1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out.String(), "digraph") {
		t.Errorf("not DOT output: %q", out.String()[:20])
	}
}

func TestCheckErrors(t *testing.T) {
	path := figureFile(t)
	tests := []struct {
		args []string
		want string // a substring of the error, when the case pins one
	}{
		{[]string{}, ""},                       // no file
		{[]string{"a.json", "b.json"}, ""},     // too many
		{[]string{"missing.json"}, ""},         // unreadable
		{[]string{"-min", "zzz", path}, ""},    // bad checkpoint syntax
		{[]string{"-min", "0", path}, ""},      // bad checkpoint arity
		{[]string{"-min", "0,99", path}, ""},   // out of range
		{[]string{"-max", "1,x", path}, ""},    // bad index
		{[]string{"-line", "1,2", path}, ""},   // wrong arity
		{[]string{"-line", "a,b,c", path}, ""}, // non-numeric
		{[]string{"-line", "9,9,9", path}, ""}, // out of range
		{[]string{"-unknown"}, ""},             // bad flag
		// A message from P1 to P1: refused as the daemon refuses the send.
		{[]string{"../../internal/trace/testdata/self_message.json"}, "message 1 from process 1 to itself"},
	}
	for _, tt := range tests {
		var out bytes.Buffer
		if err := run(tt.args, &out); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("args %v: %v, want an error saying %q", tt.args, err, tt.want)
		}
	}
}

func TestCheckASCIIAndUseless(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ascii", "-useless", "-figure1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "P0 ") || !strings.Contains(text, "s0") {
		t.Errorf("no ASCII diagram:\n%s", text)
	}
	if !strings.Contains(text, "useless checkpoints: 0") {
		t.Errorf("useless summary missing:\n%s", text)
	}
}

// TestUselessOnZCycle pins -useless on a trace with a Z-cycle through
// C{0,1} (m1 sent after it, m0 sent in the interval m1 is delivered in,
// and delivered before it) and a same-interval cycle between P1 and P2.
// The R-graph has all of C{0,1}, C{0,2}, C{1,1} and C{2,1} on cycles;
// only C{0,1} is useless, and no consistent global checkpoint holds it.
func TestUselessOnZCycle(t *testing.T) {
	const path = "../../internal/trace/testdata/zcycle.json"
	var out bytes.Buffer
	if err := run([]string{"-useless", "-min", "1,1", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := `pattern: 3 processes, 4 messages, checkpoints: 3 initial + 2 basic + 0 forced + 3 final
RDT property: false (28/35 rollback dependencies trackable)
  violation: C{0,1} ~> C{2,1} untrackable
  violation: C{0,1} ~> C{2,2} untrackable
  violation: C{0,2} ~> C{0,1} untrackable
  violation: C{0,2} ~> C{2,1} untrackable
  violation: C{0,2} ~> C{2,2} untrackable
  violation: C{2,1} ~> C{0,1} untrackable
  violation: C{2,1} ~> C{0,2} untrackable
recorded dependency vectors: consistent with offline recomputation
useless checkpoint: C{0,1} (on a zigzag cycle)
useless checkpoints: 1
minimum consistent global checkpoint containing C{1,1}: {2,1,1}
`
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
	err := run([]string{"-min", "0,1", path}, &out)
	if !errors.Is(err, rgraph.ErrNoConsistentGlobal) {
		t.Errorf("-min 0,1 on the useless checkpoint: %v, want ErrNoConsistentGlobal", err)
	}
}

// FuzzParseCkpt ensures the checkpoint-argument parser never panics and
// only accepts well-formed proc,index pairs.
func FuzzParseCkpt(f *testing.F) {
	f.Add("0,1")
	f.Add("2,")
	f.Add(",")
	f.Add("a,b")
	f.Add("1,2,3")
	f.Fuzz(func(t *testing.T, s string) {
		id, err := parseCkpt(s)
		if err == nil && (id.Index < -1<<40 || int(id.Proc) < -1<<40) {
			t.Fatalf("nonsense checkpoint accepted: %v", id)
		}
	})
}

// FuzzParseGlobal does the same for the bounds parser.
func FuzzParseGlobal(f *testing.F) {
	f.Add("1,2,3", 3)
	f.Add("", 0)
	f.Add("x", 1)
	f.Fuzz(func(t *testing.T, s string, n int) {
		if n < 0 || n > 64 {
			return
		}
		g, err := parseGlobal(s, n)
		if err == nil && len(g) != n {
			t.Fatalf("wrong arity accepted: %v", g)
		}
	})
}

func TestCheckRGraphDOT(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-rdot", "-figure1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out.String(), "digraph rgraph") {
		t.Errorf("not R-graph DOT: %q", out.String()[:30])
	}
}

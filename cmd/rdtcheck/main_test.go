package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

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
	tests := [][]string{
		{},                       // no file
		{"a.json", "b.json"},     // too many
		{"missing.json"},         // unreadable
		{"-min", "zzz", path},    // bad checkpoint syntax
		{"-min", "0", path},      // bad checkpoint arity
		{"-min", "0,99", path},   // out of range
		{"-max", "1,x", path},    // bad index
		{"-line", "1,2", path},   // wrong arity
		{"-line", "a,b,c", path}, // non-numeric
		{"-line", "9,9,9", path}, // out of range
		{"-unknown"},             // bad flag
	}
	for _, args := range tests {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
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

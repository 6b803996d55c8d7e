package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/trace"
)

func TestRunSimAndWriteTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-workload", "ring", "-n", "4",
		"-duration", "60", "-trace", tracePath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"protocol=bhmr", "messages", "RDT property", "true", "trace written"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	p, err := trace.LoadFile(tracePath)
	if err != nil {
		t.Fatalf("trace unreadable: %v", err)
	}
	if p.N != 4 {
		t.Errorf("trace N = %d", p.N)
	}
}

func TestRunSimTraceOut(t *testing.T) {
	timelinePath := filepath.Join(t.TempDir(), "timeline.json")
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-workload", "ring", "-n", "4",
		"-duration", "60", "-trace-out", timelinePath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "timeline written") {
		t.Errorf("output missing timeline notice:\n%s", out.String())
	}
	data, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatalf("timeline unreadable: %v", err)
	}
	if !bytes.Contains(data, []byte(`"traceEvents"`)) || !bytes.Contains(data, []byte(`"cat":"rdt"`)) {
		t.Errorf("timeline is not Chrome trace-event JSON:\n%.200s", data)
	}

	// Modes without a single recorded pattern reject the flag up front.
	if err := run([]string{"-protocol", "all", "-trace-out", timelinePath}, &out); err == nil {
		t.Error("-trace-out with -protocol all should fail")
	}
}

func TestRunSimVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "rdtsim dev (unknown)") {
		t.Errorf("unexpected version output %q", out.String())
	}
}

func TestRunSimNoCheck(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-check=false", "-duration", "30", "-n", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "RDT property") {
		t.Error("check ran although disabled")
	}
}

func TestRunSimErrors(t *testing.T) {
	tests := [][]string{
		{"-protocol", "bogus"},
		{"-workload", "bogus"},
		{"-n", "1"},
		{"-duration", "0"},
		{"-nonexistent-flag"},
	}
	for _, args := range tests {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunSimTraceWriteFailure(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-duration", "30", "-n", "3", "-trace", filepath.Join(t.TempDir(), "no", "dir", "x.json")}, &out)
	if err == nil {
		t.Error("unwritable trace path accepted")
	}
	if _, statErr := os.Stat("x.json"); statErr == nil {
		t.Error("stray trace file created")
	}
}

func TestRunSimReplicated(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-seeds", "3", "-duration", "40", "-n", "3", "-workload", "ring"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "seeds=1..3") || !strings.Contains(text, "95% CI") {
		t.Errorf("replicated output malformed:\n%s", text)
	}
}

func TestRunSimCompareAll(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "all", "-duration", "40", "-n", "4"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, proto := range []string{"none", "bcs", "bhmr", "fdas", "cas"} {
		if !strings.Contains(text, proto) {
			t.Errorf("comparison missing %q:\n%s", proto, text)
		}
	}
}

func TestParseFaults(t *testing.T) {
	p, err := parseFaults("drop=0.1,dup=0.2,reorder=0.3,err=0.05,delay=4ms")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if p.Drop != 0.1 || p.Duplicate != 0.2 || p.Reorder != 0.3 || p.SendError != 0.05 {
		t.Errorf("probs = %+v", p)
	}
	if p.MaxExtraDelay.Milliseconds() != 4 {
		t.Errorf("delay = %v", p.MaxExtraDelay)
	}
	for _, bad := range []string{"drop", "drop=x", "drop=1.5", "warp=0.1", "delay=fast"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestRunChaosMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-n", "4", "-rounds", "6", "-seed", "7",
		"-faults", "drop=0.15,dup=0.15,reorder=0.2,err=0.05,delay=2ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"chaos run", "messages sent", "send retries",
		"exactly-once", "RDT property", "true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunChaosModeErrors(t *testing.T) {
	tests := [][]string{
		{"-faults", "drop=2"},
		{"-faults", "drop=0.1", "-protocol", "all"},
		{"-faults", "drop=0.1", "-protocol", "bogus"},
		{"-faults", "drop=0.1", "-n", "1"},
	}
	for _, args := range tests {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunChaosSuperviseMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-n", "4", "-rounds", "8", "-seed", "7", "-supervise",
		"-faults", "drop=0.15,dup=0.15,reorder=0.2,err=0.05,delay=2ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"supervised run", "injected crash", "self-healed", "incarnation 2",
		"reason=crash", "recoveries ok", "RDT property", "true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunChaosSuperviseWithoutFaults(t *testing.T) {
	// -supervise alone runs the supervised cluster over a clean link.
	var out bytes.Buffer
	err := run([]string{"-n", "3", "-rounds", "4", "-seed", "3", "-supervise"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "self-healed") {
		t.Errorf("output missing %q:\n%s", "self-healed", out.String())
	}
}

func TestRunChaosSuperviseErrors(t *testing.T) {
	tests := [][]string{
		{"-supervise", "-protocol", "all"},
		{"-supervise", "-n", "1"},
		{"-supervise", "-faults", "drop=2"},
	}
	for _, args := range tests {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

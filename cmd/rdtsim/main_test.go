package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/scenario"
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

// TestParseFaults checks that a -faults spec reaches the generated
// scenario's fault mix as written, and that run refuses a bad spec.
func TestParseFaults(t *testing.T) {
	sc, err := scenario.Chaos(4, core.KindBHMR, 1, 2, "drop=0.1,dup=0.2,reorder=0.3,err=0.05,delay=4ms", false, false)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := sc.Faults
	if !sc.HasFaults || p.Drop != 0.1 || p.Duplicate != 0.2 || p.Reorder != 0.3 || p.SendError != 0.05 {
		t.Errorf("probs = %+v (has faults %v)", p, sc.HasFaults)
	}
	if p.MaxExtraDelay.Milliseconds() != 4 {
		t.Errorf("delay = %v", p.MaxExtraDelay)
	}
	args := func(spec string) []string {
		return []string{"-protocol", "bhmr", "-n", "4", "-rounds", "2", "-faults", spec}
	}
	var out bytes.Buffer
	if err := run(args("drop=0.1,delay=2ms"), &out); err != nil {
		t.Fatalf("good spec refused: %v", err)
	}
	for _, bad := range []string{"drop", "drop=x", "drop=1.5", "warp=0.1", "delay=fast", "delay=-1ms"} {
		if err := run(args(bad), &out); err == nil {
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
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"scenario=faults", "verdict=rdt", "sent=48 delivered=48 lost=0",
		"delivery exactly-once", "all expectations held",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunChaosModeDeterministic: the flags generate a scenario on the
// virtual clock, so two runs print the same bytes, transcript included.
func TestRunChaosModeDeterministic(t *testing.T) {
	args := []string{
		"-protocol", "bhmr", "-n", "4", "-rounds", "20", "-seed", "7", "-transcript",
		"-faults", "drop=0.1,dup=0.1,reorder=0.15,err=0.05,delay=2ms",
	}
	run1, run2 := new(bytes.Buffer), new(bytes.Buffer)
	if err := run(args, run1); err != nil {
		t.Fatalf("run: %v\n%s", err, run1)
	}
	if err := run(args, run2); err != nil {
		t.Fatalf("rerun: %v\n%s", err, run2)
	}
	if run1.String() != run2.String() {
		t.Fatalf("output not deterministic:\n%s\n---\n%s", run1, run2)
	}
	for _, want := range []string{"deliver 1<-0", "checkpoint 3", "delivery exactly-once", "verdict=rdt"} {
		if !strings.Contains(run1.String(), want) {
			t.Errorf("output missing %q:\n%s", want, run1)
		}
	}
}

func TestRunChaosModeErrors(t *testing.T) {
	tests := [][]string{
		{"-faults", "drop=2"},
		{"-faults", "drop=0.1", "-protocol", "all"},
		{"-faults", "drop=0.1", "-protocol", "bogus"},
		{"-faults", "drop=0.1", "-n", "1"},
		{"-faults", "drop=0.1", "-rounds", "-1"},
	}
	for _, args := range tests {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// supervisedVictim is the process -supervise crashes for a seed.
func supervisedVictim(seed int64, n int) int {
	return rand.New(rand.NewSource(seed)).Intn(n)
}

func TestRunChaosSuperviseMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-protocol", "bhmr", "-n", "4", "-rounds", "8", "-seed", "7", "-supervise",
		"-faults", "drop=0.15,dup=0.15,reorder=0.2,err=0.05,delay=2ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"scenario=supervised", "verdict=rdt",
		fmt.Sprintf("recovered=[%d]", supervisedVictim(7, 4)), "all expectations held",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunChaosSuperviseDeterministic: the supervisor runs on the
// scenario's virtual clock, so a supervised chaos run — detection,
// drain, recovery and replay — prints the same transcript every time.
func TestRunChaosSuperviseDeterministic(t *testing.T) {
	args := []string{
		"-protocol", "bhmr", "-n", "4", "-rounds", "20", "-seed", "7", "-supervise",
		"-faults", "drop=0.1,dup=0.1,reorder=0.15,err=0.05,delay=2ms", "-transcript",
	}
	want := fmt.Sprintf("recovered=[%d]", supervisedVictim(7, 4))
	var first string
	for i := 0; i < 3; i++ {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out.String())
		}
		if !strings.Contains(out.String(), want) || !strings.Contains(out.String(), "verdict=rdt") {
			t.Fatalf("run %d: want %s and verdict=rdt:\n%s", i, want, out.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, first, i, out.String())
		}
	}
}

func TestRunChaosSuperviseWithoutFaults(t *testing.T) {
	// -supervise alone runs the supervised cluster over a clean link.
	var out bytes.Buffer
	err := run([]string{"-n", "3", "-rounds", "4", "-seed", "3", "-supervise"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if want := fmt.Sprintf("recovered=[%d]", supervisedVictim(3, 3)); !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
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

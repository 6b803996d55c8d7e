package scenario

import (
	"strings"
	"testing"
)

const basicRDT = `
scenario basic-ring
procs 3
protocol bhmr
seed 7
delay 2ms

at 0ms  traffic ring rounds=2
at 20ms settle

expect verdict rdt
expect min-delivered 6
`

// TestRunBasic: a plain ring scenario executes, delivers everything,
// and the CIC protocol keeps the pattern RDT.
func TestRunBasic(t *testing.T) {
	sc, err := Parse(strings.NewReader(basicRDT))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("expectations failed: %v\ntranscript:\n%s", res.Failures, res.Transcript)
	}
	if res.Delivered < 6 {
		t.Fatalf("delivered %d < 6", res.Delivered)
	}
	t.Logf("verdict=%s delivered=%d lost=%d sim=%v", res.Verdict, res.Delivered, res.Lost, res.SimTime)
}

// TestRunDeterministic: two executions of the same file produce
// byte-identical transcripts — the core replay guarantee.
func TestRunDeterministic(t *testing.T) {
	run := func() string {
		sc, err := Parse(strings.NewReader(basicRDT))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Transcript
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("transcripts diverge:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

const chaosDrops = `
scenario ring-under-drops
procs 4
seed 11
faults drop=0.2,dup=0.1,reorder=0.2,delay=3ms
reliable

at 0ms  traffic ring rounds=3
at 50ms settle

expect verdict rdt
expect min-delivered 10
`

// TestRunFaultsReliable: drops and reordering under retransmission still
// deliver the traffic, deterministically.
func TestRunFaultsReliable(t *testing.T) {
	sc, err := Parse(strings.NewReader(chaosDrops))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Passed() {
		t.Fatalf("expectations failed: %v\ntranscript:\n%s", a.Failures, a.Transcript)
	}
	sc2, _ := Parse(strings.NewReader(chaosDrops))
	b, err := Run(sc2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Transcript != b.Transcript {
		t.Fatal("fault schedule not deterministic across runs")
	}
}

const crashRecover = `
scenario crash-then-recover
procs 3
seed 5

at 0ms  traffic ring rounds=2
at 20ms crash 1
at 25ms recover
at 30ms traffic ring rounds=1
at 50ms settle

expect verdict rdt
`

// TestRunCrashRecover: an unsupervised full rollback recovery restarts
// the computation from the recovery line and traffic resumes.
func TestRunCrashRecover(t *testing.T) {
	sc, err := Parse(strings.NewReader(crashRecover))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("expectations failed: %v\ntranscript:\n%s", res.Failures, res.Transcript)
	}
	if res.Delivered < 3 {
		t.Fatalf("post-recovery traffic not delivered: %d", res.Delivered)
	}
	t.Logf("verdict=%s delivered=%d lost=%d", res.Verdict, res.Delivered, res.Lost)
}

const supervised = `
scenario supervised-failover
procs 3
seed 9
supervise

at 0ms   traffic ring rounds=2
at 30ms  crash 1
at 35ms  await-recovery
at 40ms  traffic ring rounds=1
at 60ms  settle

expect verdict rdt
expect recovered 1
`

// TestRunSupervised: the supervisor detects the crash from its probes on
// the virtual clock, fails over to a new incarnation, the scenario's
// expectations hold, and a second run prints the same transcript.
func TestRunSupervised(t *testing.T) {
	sc, err := Parse(strings.NewReader(supervised))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("expectations failed: %v\ntranscript:\n%s", res.Failures, res.Transcript)
	}
	// The failover runs inside the clock's callbacks, so a second run
	// replays it byte for byte.
	res2, err := Run(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transcript != res2.Transcript {
		t.Fatalf("supervised transcript not reproducible:\n--- first ---\n%s\n--- second ---\n%s", res.Transcript, res2.Transcript)
	}
}

package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/transport"
)

// TestParseFull: every header, directive, and expectation round-trips
// into the expected structure.
func TestParseFull(t *testing.T) {
	src := `
# full grammar exercise
scenario everything
procs 4
protocol fdas
seed 99
delay 3ms
drain 100ms
faults drop=0.1,dup=0.2,reorder=0.3,err=0.05,delay=4ms
reliable

at 0ms   checkpoint 0
at 1ms   send 0 1       # trailing comment
at 2     bcast 2
at 5ms   traffic ring rounds=2
at 10ms  partition 0 1
at 12ms  heal 0 1
at 13ms  heal-all
at 20ms  disconnect 3 for=10ms
at 40ms  crash 1
at 45ms  restart 1
at 50ms  recover
at 60ms  settle

expect verdict rdt
expect line 1,2,0,1
expect min-delivered 5
expect lost 2
`
	sc, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "everything" || sc.N != 4 || sc.Protocol != core.KindFDAS || sc.Seed != 99 {
		t.Fatalf("header: %+v", sc)
	}
	if sc.Delay != 3*time.Millisecond || sc.Drain != 100*time.Millisecond {
		t.Fatalf("timing: delay=%v drain=%v", sc.Delay, sc.Drain)
	}
	want := transport.FaultProbs{Drop: 0.1, Duplicate: 0.2, Reorder: 0.3, SendError: 0.05, MaxExtraDelay: 4 * time.Millisecond}
	if !sc.HasFaults || sc.Faults != want {
		t.Fatalf("faults: %+v, want %+v", sc.Faults, want)
	}
	if !sc.Reliable || sc.Supervise {
		t.Fatalf("flags: reliable=%v supervise=%v", sc.Reliable, sc.Supervise)
	}
	// 12 directives, plus the reconnect the disconnect desugars into.
	if len(sc.Steps) != 13 {
		t.Fatalf("steps: %d, want 13", len(sc.Steps))
	}
	// "at 2" without a unit is milliseconds.
	var bcast *Step
	for i := range sc.Steps {
		if sc.Steps[i].Op == OpBcast {
			bcast = &sc.Steps[i]
		}
	}
	if bcast == nil || bcast.At != 2*time.Millisecond {
		t.Fatalf("bare-number duration: %+v", bcast)
	}
	// The desugared reconnect lands at 20ms+10ms, sorted into place.
	found := false
	for _, st := range sc.Steps {
		if st.Op == OpReconnect && st.A == 3 && st.At == 30*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatal("disconnect did not desugar into a reconnect at 30ms")
	}
	if sc.Expect.Verdict != "rdt" || !sc.Expect.HasLine || sc.Expect.MinDelivered != 5 ||
		!sc.Expect.HasLost || sc.Expect.Lost != 2 {
		t.Fatalf("expect: %+v", sc.Expect)
	}
}

// TestParseSortsEqualInstantsByFileOrder: two directives at the same
// instant keep their file order after sorting.
func TestParseSortsEqualInstantsByFileOrder(t *testing.T) {
	sc, err := Parse(strings.NewReader(`
scenario order
procs 3
at 5ms send 1 0
at 5ms send 0 1
at 1ms checkpoint 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Steps[0].Op != OpCheckpoint {
		t.Fatalf("first step %v, want the 1ms checkpoint", sc.Steps[0].Op)
	}
	if sc.Steps[1].A != 1 || sc.Steps[2].A != 0 {
		t.Fatalf("equal instants reordered: %+v", sc.Steps[1:])
	}
}

// TestParseErrors: malformed input is rejected with the offending line.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no name", "procs 3\nat 0ms settle\n", "missing 'scenario NAME'"},
		{"one proc", "scenario x\nprocs 1\n", "procs must be >= 2"},
		{"bad directive", "scenario x\nprocs 2\nat 0ms fly 0\n", `unknown directive "fly"`},
		{"bad header", "scenario x\nprocs 2\nwarp 9\n", `unknown header "warp"`},
		{"proc range", "scenario x\nprocs 2\nat 0ms checkpoint 5\n", "out of range"},
		{"self send", "scenario x\nprocs 2\nat 0ms send 1 1\n", "distinct"},
		{"neg instant", "scenario x\nprocs 2\nat -1ms settle\n", "negative instant"},
		{"bad verdict", "scenario x\nprocs 2\nexpect verdict maybe\n", "verdict must be"},
		{"bad mode", "scenario x\nprocs 2\nat 0ms traffic mesh rounds=1\n", "unknown traffic mode"},
		{"zero rounds", "scenario x\nprocs 2\nat 0ms traffic ring rounds=0\n", "rounds>=1"},
		{"await unsupervised", "scenario x\nprocs 2\nat 0ms await-recovery\n", "needs 'supervise'"},
		{"recover supervised", "scenario x\nprocs 2\nsupervise\nat 0ms recover\n", "conflicts with 'supervise'"},
		{"line arity", "scenario x\nprocs 3\nexpect line 1,2\n", "expect line has 2 entries"},
		{"bad fault key", "scenario x\nprocs 2\nfaults lag=0.5\n", `unknown key "lag"`},
		{"fault prob range", "scenario x\nprocs 2\nfaults drop=1.5\n", "out of [0,1]"},
		{"fault bare key", "scenario x\nprocs 2\nfaults drop\n", "want key=value"},
		{"fault prob syntax", "scenario x\nprocs 2\nfaults drop=x\n", "faults drop"},
		{"fault unknown key", "scenario x\nprocs 2\nfaults warp=0.1\n", `unknown key "warp"`},
		{"fault delay syntax", "scenario x\nprocs 2\nfaults delay=fast\n", "faults delay"},
		{"neg fault delay", "scenario x\nprocs 2\nfaults reorder=1,delay=-3ms\n", "negative duration"},
		{"neg delay", "scenario x\nprocs 2\ndelay -5ms\n", "delay: negative duration"},
		{"neg drain", "scenario x\nprocs 2\ndrain -1ms\n", "drain: negative duration"},
		{"zero window", "scenario x\nprocs 2\nat 0ms disconnect 1 for=0ms\n", "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("parse accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzParse: the parser never panics and never returns a scenario that
// fails its own validation.
func FuzzParse(f *testing.F) {
	f.Add("scenario x\nprocs 3\nat 0ms traffic ring rounds=2\nexpect verdict rdt\n")
	f.Add("scenario y\nprocs 2\nfaults drop=0.5\nreliable\nat 5ms send 0 1\nat 9 disconnect 1 for=3ms\n")
	f.Add("scenario z\nprocs 4\nsupervise\nat 0ms crash 2\nat 1ms await-recovery\nexpect recovered 2\n")
	f.Add("# comment\n\nscenario w\nprocs 2\nprotocol bcs\nseed -1\ndelay 250us\nat 0 settle\nexpect lost 0\n")
	f.Add("scenario v\nprocs 2\ndelay -5ms\ndrain -1ms\nfaults reorder=1,delay=-3ms\nat 0 settle\n")
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if verr := sc.validate(); verr != nil {
			t.Fatalf("Parse accepted a scenario its own validate rejects: %v", verr)
		}
		if sc.Delay < 0 || sc.Drain < 0 || sc.Faults.MaxExtraDelay < 0 {
			t.Fatalf("Parse accepted a negative duration: delay=%v drain=%v faults delay=%v",
				sc.Delay, sc.Drain, sc.Faults.MaxExtraDelay)
		}
	})
}

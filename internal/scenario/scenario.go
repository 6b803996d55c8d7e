// Package scenario is the deterministic chaos harness: a line-oriented
// text format describing a cluster run — topology and protocol, a
// traffic pattern, a fault schedule with virtual timestamps, and
// expected outcomes — plus an executor that drives the cluster runtime
// under a virtual clock so the same file and seed replay the same run,
// byte for byte.
//
// A scenario file has three sections. The header names the run and
// fixes its environment:
//
//	scenario ring-under-drops
//	procs 4
//	protocol bhmr
//	seed 7
//	delay 2ms
//	faults drop=0.05,dup=0.05,reorder=0.1,err=0.02,delay=3ms
//	reliable
//	supervise
//
// The body is a schedule of directives at virtual instants ("at" times
// are offsets from the run's start; equal instants execute in file
// order):
//
//	at 0ms    checkpoint 0
//	at 1ms    send 0 1
//	at 2ms    bcast 2
//	at 5ms    traffic ring rounds=3
//	at 10ms   partition 0 1
//	at 14ms   heal 0 1
//	at 20ms   disconnect 3 for=15ms
//	at 30ms   crash 1
//	at 35ms   restart 1
//	at 40ms   recover
//	at 50ms   await-recovery
//	at 60ms   settle
//
// The trailer asserts what the run must have produced:
//
//	expect verdict rdt
//	expect recovered 1
//	expect line 2,1,3,2
//	expect min-delivered 8
//
// Execution is deterministic by construction: every source of timing —
// transport delivery jitter, fault-injection delays, retransmission
// backoff, supervision probes — runs on one vtime.Virtual clock, fired
// in (deadline, registration) order, and the executor quiesces the
// cluster between any two firings (Cluster.Settle), so exactly one
// operation is in flight at a time. The supervisor is driven by the
// same clock's callbacks, so supervised runs, like every other, produce
// byte-identical transcripts.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/transport"
)

// Op is a directive kind of the scenario body.
type Op int

// The directives.
const (
	OpCheckpoint    Op = iota + 1 // checkpoint A
	OpSend                        // send A B
	OpBcast                       // bcast A
	OpTraffic                     // traffic Mode rounds=Rounds
	OpPartition                   // partition A B
	OpHeal                        // heal A B
	OpHealAll                     // heal-all
	OpIsolate                     // first half of disconnect: partition A from all
	OpReconnect                   // second half of disconnect: heal A with all
	OpCrash                       // crash A
	OpRestart                     // restart A
	OpRecover                     // recover (unsupervised full rollback-recovery)
	OpAwaitRecovery               // await-recovery (supervised)
	OpSettle                      // settle
)

var opNames = map[Op]string{
	OpCheckpoint: "checkpoint", OpSend: "send", OpBcast: "bcast",
	OpTraffic: "traffic", OpPartition: "partition", OpHeal: "heal",
	OpHealAll: "heal-all", OpIsolate: "disconnect", OpReconnect: "reconnect",
	OpCrash: "crash", OpRestart: "restart", OpRecover: "recover",
	OpAwaitRecovery: "await-recovery", OpSettle: "settle",
}

func (o Op) String() string { return opNames[o] }

// Traffic modes, the paper's environments plus a seeded random mix and
// a database-coordination round (the paper's motivating application).
const (
	TrafficRing         = "ring"
	TrafficPairs        = "pairs"
	TrafficClientServer = "clientserver"
	TrafficRandom       = "random"
	TrafficDBTxn        = "dbtxn"
)

// Step is one scheduled directive.
type Step struct {
	At     time.Duration // virtual offset from the run's start
	Op     Op
	A, B   int           // process operands (-1 when unused)
	Dur    time.Duration // disconnect window
	Mode   string        // traffic mode
	Rounds int           // traffic rounds
	seq    int           // file order, the tiebreak for equal instants
	Line   int           // source line, for error messages
}

// Expect is the trailer: what the finished run must show.
type Expect struct {
	// Verdict is "", "rdt", or "violation".
	Verdict string
	// Recovered lists processes that must have been autonomously
	// recovered (supervised runs: detected, failed over, and running in
	// the final incarnation).
	Recovered []int
	// Line, when HasLine, is the expected recovery line computed from
	// the final store.
	Line    []int
	HasLine bool
	// MinDelivered is the minimum number of application deliveries.
	MinDelivered int
	// Lost, when HasLost, is the exact number of lost messages.
	Lost    int
	HasLost bool
}

// Scenario is one parsed chaos scenario.
type Scenario struct {
	Name     string
	N        int
	Protocol core.Kind
	Seed     int64
	// Delay bounds the base transport's delivery jitter.
	Delay time.Duration
	// Faults is the injected fault mix; HasFaults records whether the
	// file set one (partitions alone also force the injector on).
	Faults    transport.FaultProbs
	HasFaults bool
	Reliable  bool
	Supervise bool
	// Drain is the virtual window the executor keeps advancing after
	// the last directive until the timer heap is empty (unsupervised)
	// or once (supervised).
	Drain time.Duration

	Steps  []Step
	Expect Expect
}

// Defaults of the zero header fields.
const (
	DefaultDelay = 2 * time.Millisecond
	DefaultDrain = 250 * time.Millisecond
)

// withDefaults normalizes a parsed scenario.
func (sc *Scenario) withDefaults() {
	if sc.Protocol == 0 {
		sc.Protocol = core.KindBHMR
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Delay <= 0 {
		sc.Delay = DefaultDelay
	}
	if sc.Drain <= 0 {
		sc.Drain = DefaultDrain
	}
}

// needsFaulty reports whether the run must wrap its transport in the
// fault injector (explicit mix, or any partition-family directive).
func (sc *Scenario) needsFaulty() bool {
	if sc.HasFaults {
		return true
	}
	for _, st := range sc.Steps {
		switch st.Op {
		case OpPartition, OpHeal, OpHealAll, OpIsolate, OpReconnect:
			return true
		}
	}
	return false
}

// sortSteps orders the schedule by (instant, file order).
func (sc *Scenario) sortSteps() {
	sort.SliceStable(sc.Steps, func(i, j int) bool {
		if sc.Steps[i].At != sc.Steps[j].At {
			return sc.Steps[i].At < sc.Steps[j].At
		}
		return sc.Steps[i].seq < sc.Steps[j].seq
	})
}

// validate rejects scenarios the executor cannot run.
func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing 'scenario NAME' header")
	}
	if sc.N < 2 {
		return fmt.Errorf("scenario %s: procs must be >= 2, have %d", sc.Name, sc.N)
	}
	checkProc := func(st Step, p int) error {
		if p < 0 || p >= sc.N {
			return fmt.Errorf("scenario %s line %d: process %d out of range [0,%d)", sc.Name, st.Line, p, sc.N)
		}
		return nil
	}
	for _, st := range sc.Steps {
		switch st.Op {
		case OpCheckpoint, OpBcast, OpIsolate, OpReconnect, OpCrash, OpRestart:
			if err := checkProc(st, st.A); err != nil {
				return err
			}
		case OpSend, OpPartition, OpHeal:
			if err := checkProc(st, st.A); err != nil {
				return err
			}
			if err := checkProc(st, st.B); err != nil {
				return err
			}
			if st.A == st.B {
				return fmt.Errorf("scenario %s line %d: %v needs two distinct processes", sc.Name, st.Line, st.Op)
			}
		case OpTraffic:
			if st.Rounds < 1 {
				return fmt.Errorf("scenario %s line %d: traffic needs rounds>=1", sc.Name, st.Line)
			}
			switch st.Mode {
			case TrafficRing, TrafficPairs, TrafficClientServer, TrafficRandom, TrafficDBTxn:
			default:
				return fmt.Errorf("scenario %s line %d: unknown traffic mode %q", sc.Name, st.Line, st.Mode)
			}
		case OpAwaitRecovery:
			if !sc.Supervise {
				return fmt.Errorf("scenario %s line %d: await-recovery needs 'supervise'", sc.Name, st.Line)
			}
		case OpRecover:
			if sc.Supervise {
				return fmt.Errorf("scenario %s line %d: recover conflicts with 'supervise' (the supervisor owns failover)", sc.Name, st.Line)
			}
		}
	}
	for _, p := range sc.Expect.Recovered {
		if !sc.Supervise {
			return fmt.Errorf("scenario %s: 'expect recovered' needs 'supervise'", sc.Name)
		}
		if p < 0 || p >= sc.N {
			return fmt.Errorf("scenario %s: expect recovered %d out of range [0,%d)", sc.Name, p, sc.N)
		}
	}
	if sc.Expect.HasLine && len(sc.Expect.Line) != sc.N {
		return fmt.Errorf("scenario %s: expect line has %d entries, want %d", sc.Name, len(sc.Expect.Line), sc.N)
	}
	switch sc.Expect.Verdict {
	case "", "rdt", "violation":
	default:
		return fmt.Errorf("scenario %s: expect verdict must be 'rdt' or 'violation', have %q", sc.Name, sc.Expect.Verdict)
	}
	return nil
}

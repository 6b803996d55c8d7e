package rgraph

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/sim"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/workload"
)

// compareReports asserts full parity between the batch checker's report
// and the incremental one: verdict, pair counts, and the capped
// violation list (whose head is the "first violation").
func compareReports(t *testing.T, label string, batch, inc *Report) {
	t.Helper()
	if err := diffReports(batch, inc); err != nil {
		t.Fatalf("%s: batch and incremental reports differ: %v", label, err)
	}
}

// streamPattern replays a finalized pattern into a fresh incremental
// checker, event by event, in a causally consistent order.
func streamPattern(t *testing.T, p *model.Pattern) *Incremental {
	t.Helper()
	inc, err := NewIncremental(p.N)
	if err != nil {
		t.Fatalf("new incremental: %v", err)
	}
	var a Analyzer
	if err := a.prepare(p); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	handles := make([]int, len(p.Messages))
	if err := a.run(func(proc model.ProcID, e event) {
		defer func() {
			if err := checkReach(inc); err != nil {
				t.Fatal(err)
			}
		}()
		switch e.kind {
		case evCheckpoint:
			if e.at == 0 {
				return // initial checkpoints exist by construction
			}
			if _, _, err := inc.Checkpoint(proc); err != nil {
				t.Fatalf("incremental checkpoint: %v", err)
			}
		case evSend:
			m := &p.Messages[e.at]
			h, err := inc.Send(m.From, m.To)
			if err != nil {
				t.Fatalf("incremental send: %v", err)
			}
			handles[e.at] = h
		case evDeliver:
			if err := inc.Deliver(handles[e.at]); err != nil {
				t.Fatalf("incremental deliver: %v", err)
			}
		}
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	inc.Seal()
	return inc
}

// checkPattern streams a finalized pattern through the incremental
// checker and asserts parity with the batch analyzer.
func checkPattern(t *testing.T, label string, p *model.Pattern) {
	t.Helper()
	inc := streamPattern(t, p)
	batch, err := CheckRDT(p, 32)
	if err != nil {
		t.Fatalf("%s: batch check: %v", label, err)
	}
	irep := inc.Report(32)
	compareReports(t, label, batch, irep)
	if err := checkReportOracle(inc); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := checkDecoded(inc); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got, want := inc.Violations(), batch.RPathPairs-batch.TrackablePairs; got != want {
		t.Fatalf("%s: online violation count %d, batch says %d", label, got, want)
	}
	if !batch.RDT {
		if inc.FirstViolation() == nil || *inc.FirstViolation() != batch.Violations[0] {
			t.Fatalf("%s: online first violation %v, batch first %v",
				label, inc.FirstViolation(), batch.Violations[0])
		}
	}
	// Recorded vectors must equal the offline TDVs checkpoint by
	// checkpoint — the visibility claim the service's live verdicts
	// rest on.
	tdvs, err := ComputeTDVs(p)
	if err != nil {
		t.Fatalf("%s: compute tdvs: %v", label, err)
	}
	for i := 0; i < p.N; i++ {
		for x := range p.Checkpoints[i] {
			id := model.CkptID{Proc: model.ProcID(i), Index: x}
			got := inc.TDVAt(id)
			want := tdvs.At(id)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s: %v: incremental TDV %v, offline %v", label, id, got, want)
				}
			}
		}
	}
}

func TestIncrementalFigure1(t *testing.T) {
	p, err := trace.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	checkPattern(t, "figure1", p)
}

func TestIncrementalErrors(t *testing.T) {
	if _, err := NewIncremental(0); err == nil {
		t.Fatal("NewIncremental(0) should fail")
	}
	inc, err := NewIncremental(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Deliver(42); err == nil {
		t.Fatal("delivering an unknown handle should fail")
	}
	h, err := inc.Send(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Deliver(h); err != nil {
		t.Fatal(err)
	}
	if err := inc.Deliver(h); err == nil {
		t.Fatal("double delivery should fail")
	}
	if _, _, err := inc.Checkpoint(5); err == nil {
		t.Fatal("checkpoint on an out-of-range process should fail")
	}
	inc.Seal()
	inc.Seal() // idempotent
	if !inc.Sealed() {
		t.Fatal("Sealed() should report true after Seal")
	}
	if _, err := inc.Send(0, 1); err == nil {
		t.Fatal("send after seal should fail")
	}
	if _, _, err := inc.Checkpoint(0); err == nil {
		t.Fatal("checkpoint after seal should fail")
	}
	if err := inc.Deliver(0); err == nil {
		t.Fatal("deliver after seal should fail")
	}
}

// TestIncrementalRefusalChangesNothing: an event the checker refuses — a
// self-message above all, which would put a self edge in its R-graph —
// leaves it byte for byte as it was.
func TestIncrementalRefusalChangesNothing(t *testing.T) {
	inc, err := NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Send(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inc.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	before := inc.AppendBinary(nil)
	for _, ev := range []struct {
		name  string
		apply func() error
	}{
		{"self-message", func() error { _, err := inc.Send(1, 1); return err }},
		{"self-message of a process with one in flight", func() error { _, err := inc.Send(0, 0); return err }},
		{"send to an out-of-range process", func() error { _, err := inc.Send(0, 3); return err }},
		{"checkpoint of an out-of-range process", func() error { _, _, err := inc.Checkpoint(-1); return err }},
		{"delivery of an unknown handle", func() error { return inc.Deliver(7) }},
	} {
		if err := ev.apply(); err == nil {
			t.Fatalf("%s accepted", ev.name)
		}
		if !bytes.Equal(inc.AppendBinary(nil), before) {
			t.Fatalf("refused %s changed the checker", ev.name)
		}
	}
	if _, err := DecodeIncremental(before); err != nil {
		t.Fatalf("the checker's bytes do not decode: %v", err)
	}
}

// TestIncrementalViolationCallback asserts the callback fires once per
// untrackable pair, synchronously with the events that create them.
func TestIncrementalViolationCallback(t *testing.T) {
	inc, err := NewIncremental(2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Violation]int)
	inc.OnViolation(func(v Violation) { seen[v]++ })

	// P1 sends m in I_{1,1}; P0 delivers, checkpoints C_{0,1}, then
	// sends m' delivered by P1 in I_{1,1} before C_{1,1}: the chain
	// [m m'] is a same-interval zigzag, so C_{0,1} -> C_{1,1} has an
	// R-path the vector of C_{1,1} cannot witness... in fact here the
	// delivery of m' puts C_{0,1} into P1's vector, so the violating
	// pair is the backward one: C_{1,1} -> C_{0,1} is untrackable once
	// the R-graph closes the cycle.
	m, _ := inc.Send(1, 0)
	if err := inc.Deliver(m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := inc.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	m2, _ := inc.Send(0, 1)
	if err := inc.Deliver(m2); err != nil {
		t.Fatal(err)
	}
	inc.Seal()

	rep := inc.Report(0)
	total := rep.RPathPairs - rep.TrackablePairs
	fired := 0
	for v, n := range seen {
		fired += n
		if n != 1 {
			t.Fatalf("violation %v reported %d times", v, n)
		}
	}
	if fired != total || inc.Violations() != total {
		t.Fatalf("callback fired %d times, online count %d, report says %d violations",
			fired, inc.Violations(), total)
	}
}

// TestIncrementalDifferentialRandom feeds hundreds of uncoordinated
// random event streams through a Builder and an Incremental in lockstep,
// asserting seal-now parity with the batch checker at sampled prefixes
// and full parity on the finalized pattern. Uncoordinated streams
// violate RDT often, so both verdicts are exercised.
func TestIncrementalDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	patterns := 0
	violating := 0
	for trial := 0; trial < 750; trial++ {
		n := 2 + rng.Intn(4)
		steps := 20 + rng.Intn(60)
		if runRandomStream(t, rng, n, steps) {
			violating++
		}
		patterns++
	}
	if patterns < 750 {
		t.Fatalf("ran %d random patterns, want >= 750", patterns)
	}
	if violating == 0 || violating == patterns {
		t.Fatalf("degenerate sample: %d/%d patterns violated RDT", violating, patterns)
	}
	t.Logf("random differential: %d patterns, %d violating", patterns, violating)
}

// lockstep feeds one event stream to a Builder and an Incremental, and
// after every event holds the checker's reach counters to the search
// close used to run and, when it has the bitset closure oracle, its
// interval vectors to the oracle and its report to the binary-search
// one.
type lockstep struct {
	t        *testing.T
	b        *model.Builder
	inc      *Incremental
	oracle   *closureOracle // nil: no per-event closure check
	handles  map[int]int    // builder handle -> incremental handle
	inFlight []int          // undelivered builder handles, in send order
}

func newLockstep(t *testing.T, n int, oracle *closureOracle) *lockstep {
	t.Helper()
	inc, err := NewIncremental(n)
	if err != nil {
		t.Fatal(err)
	}
	l := &lockstep{t: t, b: model.NewBuilder(n), inc: inc, oracle: oracle, handles: make(map[int]int)}
	l.checkClosure()
	return l
}

func (l *lockstep) checkClosure() {
	l.t.Helper()
	if err := checkReach(l.inc); err != nil {
		l.t.Fatal(err)
	}
	if l.oracle == nil {
		return
	}
	l.oracle.sync(l.inc)
	if err := l.oracle.check(l.inc); err != nil {
		l.t.Fatalf("closure diverged from the bitset oracle: %v", err)
	}
	if err := checkReportOracle(l.inc); err != nil {
		l.t.Fatal(err)
	}
}

func (l *lockstep) checkpoint(i model.ProcID) {
	l.t.Helper()
	_, tdv, err := l.inc.Checkpoint(i)
	if err != nil {
		l.t.Fatal(err)
	}
	l.b.Checkpoint(i, model.KindBasic, tdv)
	l.checkClosure()
}

func (l *lockstep) send(from, to model.ProcID) {
	l.t.Helper()
	bh := l.b.Send(from, to)
	ih, err := l.inc.Send(from, to)
	if err != nil {
		l.t.Fatal(err)
	}
	l.handles[bh] = ih
	l.inFlight = append(l.inFlight, bh)
	l.checkClosure()
}

// deliver delivers the k-th oldest in-flight message.
func (l *lockstep) deliver(k int) {
	l.t.Helper()
	bh := l.inFlight[k]
	l.inFlight = append(l.inFlight[:k], l.inFlight[k+1:]...)
	if err := l.b.Deliver(bh); err != nil {
		l.t.Fatal(err)
	}
	if err := l.inc.Deliver(l.handles[bh]); err != nil {
		l.t.Fatal(err)
	}
	delete(l.handles, bh)
	l.checkClosure()
}

// comparePrefix holds the seal-now report against the batch checker on
// the builder's snapshot.
func (l *lockstep) comparePrefix() {
	l.t.Helper()
	snap, _, err := l.b.Snapshot()
	if err != nil {
		l.t.Fatalf("snapshot: %v", err)
	}
	batch, err := CheckRDT(snap, 32)
	if err != nil {
		l.t.Fatalf("batch check on snapshot: %v", err)
	}
	compareReports(l.t, "prefix", batch, l.inc.Report(32))
	if err := checkReportOracle(l.inc); err != nil {
		l.t.Fatalf("prefix: %v", err)
	}
	if err := checkDecoded(l.inc); err != nil {
		l.t.Fatalf("prefix: %v", err)
	}
}

// finish delivers what is in flight in random order, seals, and holds
// the final report and the on-line accounting against the batch checker.
func (l *lockstep) finish(rng *rand.Rand) *Report {
	l.t.Helper()
	for len(l.inFlight) > 0 {
		l.deliver(rng.Intn(len(l.inFlight)))
	}
	p, err := l.b.Finalize()
	if err != nil {
		l.t.Fatal(err)
	}
	l.inc.Seal()
	l.checkClosure()
	batch, err := CheckRDT(p, 32)
	if err != nil {
		l.t.Fatal(err)
	}
	compareReports(l.t, "final", batch, l.inc.Report(32))
	if err := checkReportOracle(l.inc); err != nil {
		l.t.Fatalf("final: %v", err)
	}
	if err := checkDecoded(l.inc); err != nil {
		l.t.Fatalf("final: %v", err)
	}
	if got, want := l.inc.Violations(), batch.RPathPairs-batch.TrackablePairs; got != want {
		l.t.Fatalf("online violation count %d, batch says %d", got, want)
	}
	if !batch.RDT && (l.inc.FirstViolation() == nil || *l.inc.FirstViolation() != batch.Violations[0]) {
		l.t.Fatalf("online first violation %v, batch first %v", l.inc.FirstViolation(), batch.Violations[0])
	}
	if err := VerifyRecordedTDVs(p); err != nil {
		l.t.Fatalf("recorded TDVs diverge from offline ones: %v", err)
	}
	return batch
}

// runRandomStream drives one random run, checking the closure against
// the oracle after every event, and reports whether the final pattern
// violated RDT.
func runRandomStream(t *testing.T, rng *rand.Rand, n, steps int) bool {
	t.Helper()
	l := newLockstep(t, n, &closureOracle{})
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(10); {
		case op < 3: // basic checkpoint
			l.checkpoint(model.ProcID(rng.Intn(n)))
		case op < 7 || len(l.inFlight) == 0: // send
			from := model.ProcID(rng.Intn(n))
			to := model.ProcID(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			l.send(from, to)
		default: // deliver a random in-flight message
			l.deliver(rng.Intn(len(l.inFlight)))
		}
		if s%17 == 11 {
			l.comparePrefix()
		}
	}
	return !l.finish(rng).RDT
}

// TestIncrementalDifferentialAdversarial drives long eight-process runs
// built to stress what the short random corpus cannot reach: a backlog
// of messages delivered many sender checkpoints late (edges out of
// long-closed nodes), processes that checkpoint rarely next to ones that
// checkpoint all the time (long open intervals that close Z-cycles and
// lower an entry that was already finite, again and again), and an
// encode/decode in mid-run. The closure is held against the oracle and
// the report against the batch checker at sampled prefixes and at seal.
func TestIncrementalDifferentialAdversarial(t *testing.T) {
	const n, steps = 8, 4096
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newLockstep(t, n, nil)
		oracle := &closureOracle{}
		type sendInfo struct {
			from  model.ProcID
			index int // the sender's open interval at the send
		}
		sent := make(map[int]sendInfo) // by builder handle
		late, lowered := 0, 0
		var before []int32
		for s := 0; s < steps; s++ {
			before = append(before[:0], l.inc.minReach...)
			switch op := rng.Intn(16); {
			case op < 4:
				// The upper half of the processes checkpoints 15 times less
				// often than the lower half.
				i := rng.Intn(n)
				if i >= n/2 && rng.Intn(8) != 0 {
					i -= n / 2
				}
				l.checkpoint(model.ProcID(i))
			case len(l.inFlight) == 0 || op < 12 && len(l.inFlight) < 128 || op < 9 && len(l.inFlight) < 256:
				// Sends outrun deliveries until the backlog is 128 deep.
				from := model.ProcID(rng.Intn(n))
				to := model.ProcID(rng.Intn(n - 1))
				if to >= from {
					to++
				}
				l.send(from, to)
				sent[l.inFlight[len(l.inFlight)-1]] = sendInfo{from, l.inc.NextIndex(from)}
			default:
				k := 0 // the oldest in-flight message, or now and then a random one
				if rng.Intn(4) == 0 {
					k = rng.Intn(len(l.inFlight))
				}
				if m := sent[l.inFlight[k]]; l.inc.NextIndex(m.from)-m.index >= 8 {
					late++
				}
				l.deliver(k)
			}
			for k, old := range before {
				if old != noReach && l.inc.minReach[k] < old {
					lowered++
				}
			}
			if s%1024 == 1023 {
				oracle.sync(l.inc)
				if err := oracle.check(l.inc); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, s, err)
				}
				l.comparePrefix()
			}
			if s == steps/2 {
				dec, err := DecodeIncremental(l.inc.AppendBinary(nil))
				if err != nil {
					t.Fatalf("seed %d: decode in mid-run: %v", seed, err)
				}
				if dec.Violations() != l.inc.Violations() {
					t.Fatalf("seed %d: decoded checker counts %d violations, original %d", seed, dec.Violations(), l.inc.Violations())
				}
				l.inc = dec
			}
		}
		batch := l.finish(rng)
		oracle.sync(l.inc)
		if err := oracle.check(l.inc); err != nil {
			t.Fatalf("seed %d at seal: %v", seed, err)
		}
		if late < steps/16 || lowered == 0 || batch.RDT {
			t.Fatalf("seed %d is not adversarial: %d late deliveries, %d finite entries lowered, RDT=%v", seed, late, lowered, batch.RDT)
		}
		t.Logf("seed %d: %d checkpoints, %d deliveries >= 8 sender checkpoints late, %d finite entries lowered, %d violations",
			seed, l.inc.NumCheckpoints(), late, lowered, l.inc.Violations())
	}
}

// TestIncrementalDifferentialSim streams simulator-generated patterns —
// protocol-coordinated runs over the paper's workloads — through the
// incremental checker. Together with the random streams
// and the adversarial runs this puts the total differential corpus above
// 1000 patterns.
func TestIncrementalDifferentialSim(t *testing.T) {
	protocols := []core.Kind{core.KindNone, core.KindBCS, core.KindBHMR, core.KindFDAS}
	patterns := 0
	for seed := int64(1); seed <= 70; seed++ {
		for _, kind := range protocols {
			cfg := sim.DefaultConfig(kind, seed)
			cfg.N = 3 + int(seed%4)
			cfg.Duration = 40
			cfg.BasicMean = 6
			res, err := sim.Run(cfg, &workload.Random{MeanGap: 1})
			if err != nil {
				t.Fatalf("sim %v seed %d: %v", kind, seed, err)
			}
			checkPattern(t, res.Protocol.String(), res.Pattern)
			patterns++
		}
	}
	if patterns < 280 {
		t.Fatalf("ran %d sim patterns, want >= 280", patterns)
	}
}

// TestIncrementalReportSorted asserts the report's violation list is in
// the batch checker's enumeration order even when violations were
// detected out of order.
func TestIncrementalReportSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := model.NewBuilder(3)
		inc, _ := NewIncremental(3)
		var inFlight []int
		handles := make(map[int]int)
		for s := 0; s < 40; s++ {
			switch op := rng.Intn(3); {
			case op == 0:
				i := model.ProcID(rng.Intn(3))
				_, tdv, _ := inc.Checkpoint(i)
				b.Checkpoint(i, model.KindBasic, tdv)
			case op == 1 || len(inFlight) == 0:
				from := model.ProcID(rng.Intn(3))
				to := (from + model.ProcID(1+rng.Intn(2))) % 3
				bh := b.Send(from, to)
				ih, _ := inc.Send(from, to)
				handles[bh] = ih
				inFlight = append(inFlight, bh)
			default:
				k := rng.Intn(len(inFlight))
				bh := inFlight[k]
				inFlight = append(inFlight[:k], inFlight[k+1:]...)
				_ = b.Deliver(bh)
				_ = inc.Deliver(handles[bh])
			}
		}
		rep := inc.Report(1000)
		if !sort.SliceIsSorted(rep.Violations, func(x, y int) bool {
			return lessViolation(rep.Violations[x], rep.Violations[y])
		}) {
			t.Fatalf("violations not sorted: %v", rep.Violations)
		}
	}
}

package core

import (
	"testing"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// recorder collects checkpoint records from an instance. A record's
// vector is lent for the sink call, so the recorder keeps a copy.
type recorder struct {
	recs []CheckpointRecord
}

func (r *recorder) sink(rec CheckpointRecord) {
	rec.TDV = rec.TDV.Clone()
	r.recs = append(r.recs, rec)
}

func newInst(t *testing.T, k Kind, proc, n int) (Instance, *recorder) {
	t.Helper()
	rec := &recorder{}
	inst, err := New(k, proc, n, rec.sink)
	if err != nil {
		t.Fatalf("new %v: %v", k, err)
	}
	return inst, rec
}

func TestNewValidatesArguments(t *testing.T) {
	if _, err := New(KindBHMR, 3, 3, nil); err == nil {
		t.Error("accepted out-of-range process")
	}
	if _, err := New(KindBHMR, -1, 3, nil); err == nil {
		t.Error("accepted negative process")
	}
	if _, err := New(Kind(99), 0, 3, nil); err == nil {
		t.Error("accepted unknown kind")
	}
	if _, err := New(KindBHMR, 0, 0, nil); err == nil {
		t.Error("accepted empty system")
	}
}

func TestAllKindsTakeInitialCheckpoint(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			inst, rec := newInst(t, k, 1, 3)
			if len(rec.recs) != 1 {
				t.Fatalf("records = %d, want 1", len(rec.recs))
			}
			r := rec.recs[0]
			if r.Kind != model.KindInitial || r.Index != 0 || r.Proc != 1 {
				t.Errorf("initial record = %+v", r)
			}
			if !r.TDV.Equal(vclock.NewVec(3)) {
				t.Errorf("initial TDV = %v, want zeros", r.TDV)
			}
			if inst.CurrentInterval() != 1 {
				t.Errorf("interval = %d, want 1", inst.CurrentInterval())
			}
			if inst.Proc() != 1 || inst.Kind() != k {
				t.Errorf("identity wrong: %d %v", inst.Proc(), inst.Kind())
			}
		})
	}
}

func TestBasicCheckpointAdvancesInterval(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			inst, rec := newInst(t, k, 0, 2)
			inst.TakeBasicCheckpoint()
			if inst.CurrentInterval() != 2 {
				t.Errorf("interval = %d, want 2", inst.CurrentInterval())
			}
			if inst.Basic() != 1 || inst.Forced() != 0 {
				t.Errorf("counters basic=%d forced=%d", inst.Basic(), inst.Forced())
			}
			last := rec.recs[len(rec.recs)-1]
			if last.Kind != model.KindBasic || last.Index != 1 || last.TDV[0] != 1 {
				t.Errorf("record = %+v", last)
			}
		})
	}
}

func TestOnSendPiggybackContents(t *testing.T) {
	tests := []struct {
		kind       Kind
		wantSimple bool
		wantCausal bool
	}{
		{KindNone, false, false},
		{KindBCS, false, false},
		{KindFDAS, false, false},
		{KindFDI, false, false},
		{KindNRAS, false, false},
		{KindCBR, false, false},
		{KindCAS, false, false},
		{KindBHMR, true, true},
		{KindBHMRNoSimple, false, true},
		{KindBHMRCausalOnly, false, true},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			inst, _ := newInst(t, tt.kind, 0, 3)
			pb, forceAfter := inst.OnSend(1)
			if forceAfter != (tt.kind == KindCAS) {
				t.Errorf("forceAfter = %v", forceAfter)
			}
			if pb.TDV == nil || pb.TDV[0] != 1 {
				t.Errorf("piggyback TDV = %v", pb.TDV)
			}
			if (pb.Simple != nil) != tt.wantSimple {
				t.Errorf("simple present = %v, want %v", pb.Simple != nil, tt.wantSimple)
			}
			if (pb.Causal != nil) != tt.wantCausal {
				t.Errorf("causal present = %v, want %v", pb.Causal != nil, tt.wantCausal)
			}
		})
	}
}

func TestPiggybackIsACopy(t *testing.T) {
	a, _ := newInst(t, KindBHMR, 0, 2)
	pb, _ := a.OnSend(1)
	// Mutating the instance afterwards must not change the piggyback.
	a.TakeBasicCheckpoint()
	if pb.TDV[0] != 1 {
		t.Errorf("piggyback TDV mutated: %v", pb.TDV)
	}
	clone := pb.Clone()
	clone.TDV[0] = 9
	clone.Simple[0] = false
	clone.Causal.Set(0, 1, true)
	if pb.TDV[0] == 9 || !pb.Simple[0] || pb.Causal.At(0, 1) {
		t.Error("Clone aliases original piggyback")
	}
}

func TestCASCheckpointsAfterEverySend(t *testing.T) {
	inst, rec := newInst(t, KindCAS, 0, 2)
	for s := 0; s < 3; s++ {
		_, force := inst.OnSend(1)
		if !force {
			t.Fatal("CAS did not request checkpoint after send")
		}
		inst.CheckpointAfterSend()
	}
	if inst.Forced() != 3 {
		t.Errorf("forced = %d, want 3", inst.Forced())
	}
	if got := rec.recs[len(rec.recs)-1].Index; got != 3 {
		t.Errorf("last index = %d, want 3", got)
	}
}

// shuttle delivers a message between two instances, returning whether the
// receiver was forced to checkpoint.
func shuttle(from, to Instance) bool {
	pb, forceAfter := from.OnSend(to.Proc())
	if forceAfter {
		from.CheckpointAfterSend()
	}
	return to.OnArrival(from.Proc(), pb.Clone())
}

func TestFDASForcesOnNewDependencyAfterSend(t *testing.T) {
	// P0 sends to P1, then receives a message carrying a new dependency:
	// FDAS must force a checkpoint before the delivery.
	p0, _ := newInst(t, KindFDAS, 0, 2)
	p1, _ := newInst(t, KindFDAS, 1, 2)

	if forced := shuttle(p0, p1); forced {
		t.Fatal("P1 forced with empty interval")
	}
	// P1 answers; its piggyback carries TDV[1] = 1, new for P0, and P0 has
	// sent in its current interval.
	if forced := shuttle(p1, p0); !forced {
		t.Fatal("FDAS did not force on new dependency after send")
	}
	if p0.Forced() != 1 {
		t.Errorf("forced = %d, want 1", p0.Forced())
	}
	// TDV merged after the forced checkpoint.
	if got := p0.TDV(); got[1] != 1 {
		t.Errorf("TDV = %v, want entry 1 = 1", got)
	}
}

func TestFDASDoesNotForceWithoutPriorSend(t *testing.T) {
	p0, _ := newInst(t, KindFDAS, 0, 2)
	p1, _ := newInst(t, KindFDAS, 1, 2)
	if forced := shuttle(p1, p0); forced {
		t.Fatal("FDAS forced although no send occurred in the interval")
	}
}

func TestNRASForcesOnAnyDeliveryAfterSend(t *testing.T) {
	p0, _ := newInst(t, KindNRAS, 0, 2)
	p1, _ := newInst(t, KindNRAS, 1, 2)
	// P0 delivers without having sent: not forced.
	if forced := shuttle(p1, p0); forced {
		t.Fatal("NRAS forced on receive-only interval")
	}
	// P1 sent above and now delivers: forced, even though the message
	// brings no dependency P1 does not already know.
	if forced := shuttle(p0, p1); !forced {
		t.Fatal("NRAS did not force on delivery after send")
	}
}

func TestCBRForcesOnNonEmptyInterval(t *testing.T) {
	p0, _ := newInst(t, KindCBR, 0, 2)
	p1, _ := newInst(t, KindCBR, 1, 2)
	if forced := shuttle(p0, p1); forced {
		t.Fatal("CBR forced on empty interval")
	}
	// Second delivery: interval now holds the first delivery.
	if forced := shuttle(p0, p1); !forced {
		t.Fatal("CBR did not force on non-empty interval")
	}
}

func TestFDIForcesOnNewDependencyInNonEmptyInterval(t *testing.T) {
	p0, _ := newInst(t, KindFDI, 0, 3)
	p1, _ := newInst(t, KindFDI, 1, 3)
	p2, _ := newInst(t, KindFDI, 2, 3)
	// P2 delivers from P0: empty interval, not forced.
	if forced := shuttle(p0, p2); forced {
		t.Fatal("FDI forced on empty interval")
	}
	// P2 delivers from P1: non-empty interval, new dependency => forced,
	// even though P2 never sent (FDAS would not force here).
	if forced := shuttle(p1, p2); !forced {
		t.Fatal("FDI did not force")
	}
}

func TestNoneNeverForces(t *testing.T) {
	p0, _ := newInst(t, KindNone, 0, 2)
	p1, _ := newInst(t, KindNone, 1, 2)
	for i := 0; i < 5; i++ {
		if shuttle(p0, p1) || shuttle(p1, p0) {
			t.Fatal("uncoordinated protocol forced a checkpoint")
		}
	}
	if p0.Forced()+p1.Forced() != 0 {
		t.Error("forced counters non-zero")
	}
}

// TestBHMRLessConservativeThanFDAS reproduces the canonical situation where
// FDAS forces but the paper's protocol does not: a request/response pair
// with no intervening checkpoint. The response closes a *simple* causal
// chain issued from P0's current interval, so every dependency it brings is
// causally doubled and no checkpoint is needed.
func TestBHMRLessConservativeThanFDAS(t *testing.T) {
	bh0, _ := newInst(t, KindBHMR, 0, 2)
	bh1, _ := newInst(t, KindBHMR, 1, 2)
	if forced := shuttle(bh0, bh1); forced {
		t.Fatal("request forced a checkpoint")
	}
	if forced := shuttle(bh1, bh0); forced {
		t.Fatal("BHMR forced on a causally doubled dependency")
	}

	// Same exchange under FDAS: the response carries TDV[1]=1 > 0 and P0
	// sent in its interval, so FDAS forces.
	fd0, _ := newInst(t, KindFDAS, 0, 2)
	fd1, _ := newInst(t, KindFDAS, 1, 2)
	if forced := shuttle(fd0, fd1); forced {
		t.Fatal("request forced a checkpoint")
	}
	if forced := shuttle(fd1, fd0); !forced {
		t.Fatal("FDAS did not force — hierarchy test is vacuous")
	}
}

// TestBHMRC2Scenario reproduces Figure 4's structure: a causal chain leaves
// P0's current interval, crosses a checkpoint at P1, and returns to P0.
// Only P0 can break the resulting non-causal chain from C_{1,z} to
// C_{1,z-1}, so condition C2 must fire.
func TestBHMRC2Scenario(t *testing.T) {
	p0, _ := newInst(t, KindBHMR, 0, 2)
	p1, _ := newInst(t, KindBHMR, 1, 2)

	if forced := shuttle(p0, p1); forced { // m' : P0 -> P1
		t.Fatal("first hop forced")
	}
	p1.TakeBasicCheckpoint()                // C_{1,z} : the chain now crosses a checkpoint
	if forced := shuttle(p1, p0); !forced { // m'' : P1 -> P0, closes the chain
		t.Fatal("C2 did not force although the returning chain is non-simple")
	}
	if p0.Forced() != 1 {
		t.Errorf("forced = %d, want 1", p0.Forced())
	}
}

// TestBHMRVariantsOnC2Scenario checks both published variants also break
// the Figure 4 chain (they are more conservative than the full protocol).
func TestBHMRVariantsOnC2Scenario(t *testing.T) {
	for _, k := range []Kind{KindBHMRNoSimple, KindBHMRCausalOnly} {
		t.Run(k.String(), func(t *testing.T) {
			p0, _ := newInst(t, k, 0, 2)
			p1, _ := newInst(t, k, 1, 2)
			if forced := shuttle(p0, p1); forced {
				t.Fatal("first hop forced")
			}
			p1.TakeBasicCheckpoint()
			if forced := shuttle(p1, p0); !forced {
				t.Fatalf("%v did not break the returning chain", k)
			}
		})
	}
}

// TestVariantsMoreConservativeThanFull: on the plain request/response (no
// checkpoint at the responder) the full protocol takes no forced
// checkpoint; variant A forces via C2' and variant B via C1 (its causal
// diagonal is permanently false). This is the price of the smaller
// piggyback the paper describes in Section 5.1.
func TestVariantsMoreConservativeThanFull(t *testing.T) {
	for _, tt := range []struct {
		kind   Kind
		forced bool
	}{
		{KindBHMR, false},
		{KindBHMRNoSimple, true},
		{KindBHMRCausalOnly, true},
	} {
		t.Run(tt.kind.String(), func(t *testing.T) {
			p0, _ := newInst(t, tt.kind, 0, 2)
			p1, _ := newInst(t, tt.kind, 1, 2)
			if forced := shuttle(p0, p1); forced {
				t.Fatal("request forced")
			}
			if forced := shuttle(p1, p0); forced != tt.forced {
				t.Errorf("response forced = %v, want %v", forced, tt.forced)
			}
		})
	}
}

func TestBHMRSimpleSelfEntryInvariant(t *testing.T) {
	p0, _ := newInst(t, KindBHMR, 0, 3)
	p1, _ := newInst(t, KindBHMR, 1, 3)
	for i := 0; i < 4; i++ {
		shuttle(p0, p1)
		shuttle(p1, p0)
		p1.TakeBasicCheckpoint()
		bh, ok := p0.(*bhmr)
		if !ok {
			t.Fatal("unexpected instance type")
		}
		if !bh.simple[0] {
			t.Fatal("simple[self] lost its permanently-true invariant")
		}
		if bh.tdv[0] != bh.CurrentInterval() {
			t.Fatal("TDV[self] is not the current interval")
		}
	}
}

func TestBHMRCausalOnlyDiagonalStaysFalse(t *testing.T) {
	p0, _ := newInst(t, KindBHMRCausalOnly, 0, 3)
	p1, _ := newInst(t, KindBHMRCausalOnly, 1, 3)
	p2, _ := newInst(t, KindBHMRCausalOnly, 2, 3)
	for i := 0; i < 3; i++ {
		shuttle(p0, p1)
		shuttle(p1, p2)
		shuttle(p2, p0)
		p1.TakeBasicCheckpoint()
	}
	for _, inst := range []Instance{p0, p1, p2} {
		bh := inst.(*bhmr)
		for k := 0; k < 3; k++ {
			if bh.causal.At(k, k) {
				t.Fatalf("diagonal (%d,%d) set on %v", k, k, inst.Proc())
			}
		}
	}
}

func TestPredicateImplicationsOnCraftedPiggybacks(t *testing.T) {
	// For a BHMR instance in an arbitrary (here: post-send) state, the
	// paper's implications must hold for any piggyback: C1 ∨ C2 ⇒ C_FDAS,
	// C2 ⇒ C2', and C_FDAS ⇒ C_FDI ∧ C_NRAS.
	inst, _ := newInst(t, KindBHMR, 0, 3)
	inst.OnSend(1)
	bh := inst.(*bhmr)

	pbs := []Piggyback{
		{TDV: vclock.Vec{0, 1, 0}, Simple: vclock.Bools{true, true, false}, Causal: vclock.IdentityMatrix(3)},
		{TDV: vclock.Vec{1, 2, 2}, Simple: vclock.Bools{false, true, false}, Causal: vclock.NewMatrix(3)},
		{TDV: vclock.Vec{0, 0, 0}, Simple: vclock.Bools{true, true, true}, Causal: vclock.IdentityMatrix(3)},
		{TDV: vclock.Vec{1, 3, 1}, Simple: vclock.Bools{false, false, false}, Causal: vclock.NewMatrix(3)},
	}
	for i, pb := range pbs {
		pred := bh.Evaluate(pb)
		if (pred.C1 || pred.C2) && !pred.FDAS {
			t.Errorf("pb %d: C1∨C2 without C_FDAS: %+v", i, pred)
		}
		if pred.C2 && !pred.C2Prime {
			t.Errorf("pb %d: C2 without C2': %+v", i, pred)
		}
		if pred.FDAS && (!pred.FDI || !pred.NRAS) {
			t.Errorf("pb %d: C_FDAS without C_FDI/C_NRAS: %+v", i, pred)
		}
		if pred.NRAS && !pred.CBR {
			t.Errorf("pb %d: C_NRAS without C_CBR: %+v", i, pred)
		}
	}
}

func TestWireSizes(t *testing.T) {
	const n = 8
	sizes := make(map[Kind]int)
	for _, k := range Kinds() {
		inst, _ := newInst(t, k, 0, n)
		sizes[k] = inst.WireSize()
	}
	if sizes[KindNone] != 0 || sizes[KindNRAS] != 0 || sizes[KindCBR] != 0 || sizes[KindCAS] != 0 {
		t.Errorf("flag protocols should piggyback nothing: %v", sizes)
	}
	if sizes[KindFDAS] != 4*n {
		t.Errorf("FDAS = %d, want %d", sizes[KindFDAS], 4*n)
	}
	if sizes[KindBHMR] <= sizes[KindBHMRNoSimple] {
		t.Errorf("full BHMR (%d) should exceed variant A (%d)", sizes[KindBHMR], sizes[KindBHMRNoSimple])
	}
	if sizes[KindBHMRNoSimple] != sizes[KindBHMRCausalOnly] {
		t.Errorf("variants A and B should match: %v", sizes)
	}
	if sizes[KindBHMR] <= sizes[KindFDAS] {
		t.Errorf("BHMR (%d) must pay more than FDAS (%d)", sizes[KindBHMR], sizes[KindFDAS])
	}
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds() {
		parsed, err := ParseKind(k.String())
		if err != nil {
			t.Errorf("parse %v: %v", k, err)
		}
		if parsed != k {
			t.Errorf("round trip %v -> %v", k, parsed)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("parsed unknown name")
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestRDTKindsExcludesNone(t *testing.T) {
	for _, k := range RDTKinds() {
		if k == KindNone {
			t.Fatal("KindNone listed as an RDT protocol")
		}
	}
	for _, k := range RDTKinds() {
		if k == KindBCS {
			t.Fatal("KindBCS listed as an RDT protocol")
		}
	}
	if len(RDTKinds()) != len(Kinds())-2 {
		t.Errorf("RDTKinds = %v", RDTKinds())
	}
}

func TestNilSinkIsAllowed(t *testing.T) {
	for _, k := range Kinds() {
		inst, err := New(k, 0, 2, nil)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		inst.TakeBasicCheckpoint()
		pb, force := inst.OnSend(1)
		if force {
			inst.CheckpointAfterSend()
		}
		inst.OnArrival(1, Piggyback{TDV: pb.TDV.Clone(), Simple: vclock.NewBools(2), Causal: vclock.IdentityMatrix(2)})
	}
}

func TestBCSForcesOnHigherSequenceNumber(t *testing.T) {
	p0, _ := newInst(t, KindBCS, 0, 2)
	p1, _ := newInst(t, KindBCS, 1, 2)
	// Equal sequence numbers: no forced checkpoint.
	if forced := shuttle(p0, p1); forced {
		t.Fatal("BCS forced on equal sequence number")
	}
	// P0 takes two basic checkpoints: its number jumps ahead.
	p0.TakeBasicCheckpoint()
	p0.TakeBasicCheckpoint()
	if forced := shuttle(p0, p1); !forced {
		t.Fatal("BCS did not force on a message from the future")
	}
	// The forced checkpoint adopted the number: the same number again does
	// not force.
	if forced := shuttle(p0, p1); forced {
		t.Fatal("BCS forced twice for the same sequence number")
	}
	if p1.Forced() != 1 {
		t.Errorf("forced = %d, want 1", p1.Forced())
	}
}

func TestBCSWireSize(t *testing.T) {
	inst, _ := newInst(t, KindBCS, 0, 64)
	if got := inst.WireSize(); got != 4 {
		t.Errorf("wire size = %d, want 4 (independent of n)", got)
	}
	pb, _ := inst.OnSend(1)
	if pb.SN != 0 {
		t.Errorf("piggybacked SN = %d, want 0 after only the initial checkpoint", pb.SN)
	}
	inst.TakeBasicCheckpoint()
	pb, _ = inst.OnSend(1)
	if pb.SN != 1 {
		t.Errorf("piggybacked SN = %d, want 1 after a basic checkpoint", pb.SN)
	}
	clone := pb.Clone()
	if clone.SN != pb.SN {
		t.Error("Clone dropped the sequence number")
	}
}

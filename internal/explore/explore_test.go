package explore

import (
	"errors"
	"fmt"
	"testing"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/sim"
)

// twoProcScenario: P0 sends twice around a checkpoint, P1 answers once and
// checkpoints — a scenario dense in zigzag opportunities.
func twoProcScenario() [][]Op {
	return [][]Op{
		{Send(1), Checkpoint(), Send(1)},
		{Send(0), Checkpoint()},
	}
}

// threeProcScenario: a ring with one checkpoint, the minimal shape that
// produces multi-hop non-causal chains.
func threeProcScenario() [][]Op {
	return [][]Op{
		{Send(1)},
		{Send(2), Checkpoint()},
		{Send(0)},
	}
}

func TestRunValidatesScenario(t *testing.T) {
	if _, err := Run(core.KindBHMR, [][]Op{{Send(1)}}, nil); err == nil {
		t.Error("single-process scenario accepted")
	}
	if _, err := Run(core.KindBHMR, [][]Op{{Send(0)}, {}}, nil); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := Run(core.KindBHMR, [][]Op{{Send(7)}, {}}, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
}

func TestEnumerationCountsAndValidity(t *testing.T) {
	// Every enumerated execution must be a valid pattern delivering all
	// three messages, and the same scenario must produce the same count
	// for every protocol (the choice tree is protocol-independent).
	counts := make(map[core.Kind]int)
	for _, kind := range []core.Kind{core.KindNone, core.KindBHMR} {
		res, err := Run(kind, twoProcScenario(), func(_ []sim.Op, p *model.Pattern) error {
			if err := p.Validate(); err != nil {
				return err
			}
			if len(p.Messages) != 3 {
				return fmt.Errorf("got %d messages, want 3", len(p.Messages))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		counts[kind] = res.Executions
	}
	if counts[core.KindNone] != counts[core.KindBHMR] {
		t.Errorf("execution counts differ across protocols: %v", counts)
	}
	if counts[core.KindBHMR] < 100 {
		t.Errorf("suspiciously few executions: %d", counts[core.KindBHMR])
	}
}

// TestExploredTotals pins, for every protocol on both scenarios, the
// number of executions and the basic and forced checkpoints summed over
// them. The choice tree is the same for every protocol. A scripted
// checkpoint is skipped when its process had no event since its last
// checkpoint, so CAS, which checkpoints right after every send, takes
// fewer basic checkpoints than the scripts attempt; every other protocol
// takes them all, since each scripted checkpoint follows a send.
func TestExploredTotals(t *testing.T) {
	type totals struct{ executions, basic, forced int }
	want := map[string]map[core.Kind]totals{
		"2proc": {
			core.KindNone: {448, 896, 0}, core.KindBCS: {448, 896, 133},
			core.KindBHMR: {448, 896, 18}, core.KindBHMRNoSimple: {448, 896, 63},
			core.KindBHMRCausalOnly: {448, 896, 538}, core.KindFDAS: {448, 896, 538},
			core.KindFDI: {448, 896, 715}, core.KindNRAS: {448, 896, 541},
			core.KindCBR: {448, 896, 802}, core.KindCAS: {448, 289, 1344},
		},
		"3proc": {
			core.KindNone: {420, 420, 0}, core.KindBCS: {420, 420, 0},
			core.KindBHMR: {420, 420, 833}, core.KindBHMRNoSimple: {420, 420, 833},
			core.KindBHMRCausalOnly: {420, 420, 833}, core.KindFDAS: {420, 420, 833},
			core.KindFDI: {420, 420, 833}, core.KindNRAS: {420, 420, 833},
			core.KindCBR: {420, 420, 833}, core.KindCAS: {420, 147, 1260},
		},
	}
	scenarios := map[string][][]Op{
		"2proc": twoProcScenario(),
		"3proc": threeProcScenario(),
	}
	for name, scripts := range scenarios {
		for _, kind := range core.Kinds() {
			var got totals
			res, err := Run(kind, scripts, func(_ []sim.Op, p *model.Pattern) error {
				st := p.Stats()
				got.basic += st.Basic
				got.forced += st.Forced
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			got.executions = res.Executions
			if got != want[name][kind] {
				t.Errorf("%s/%v: got %+v, want %+v", name, kind, got, want[name][kind])
			}
		}
	}
}

// TestExhaustiveRDT is the exhaustive soundness theorem for small
// scenarios: over EVERY schedule of both scenarios, every RDT protocol
// yields a pattern with no untrackable rollback dependency and correct
// dependency-vector annotations.
func TestExhaustiveRDT(t *testing.T) {
	scenarios := map[string][][]Op{
		"2proc": twoProcScenario(),
		"3proc": threeProcScenario(),
	}
	kinds := []core.Kind{
		core.KindBHMR, core.KindBHMRNoSimple, core.KindBHMRCausalOnly,
		core.KindFDAS, core.KindFDI, core.KindNRAS, core.KindCBR, core.KindCAS,
	}
	for name, scripts := range scenarios {
		for _, kind := range kinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				res, err := Run(kind, scripts, func(_ []sim.Op, p *model.Pattern) error {
					rep, err := rgraph.CheckRDT(p, 1)
					if err != nil {
						return err
					}
					if !rep.RDT {
						return fmt.Errorf("RDT violated: %v", rep.Violations)
					}
					return rgraph.VerifyRecordedTDVs(p)
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Executions == 0 {
					t.Fatal("no executions enumerated")
				}
			})
		}
	}
}

// TestExhaustiveCorollary45: over every schedule, the vector recorded with
// every checkpoint of the paper's protocol is the minimum consistent
// global checkpoint containing it.
func TestExhaustiveCorollary45(t *testing.T) {
	_, err := Run(core.KindBHMR, twoProcScenario(), func(_ []sim.Op, p *model.Pattern) error {
		for i := 0; i < p.N; i++ {
			for x := range p.Checkpoints[i] {
				ck := &p.Checkpoints[i][x]
				if ck.TDV == nil {
					continue
				}
				min, err := rgraph.MinConsistentContaining(p, ck.ID())
				if err != nil {
					return err
				}
				if !min.Equal(model.GlobalCheckpoint(ck.TDV)) {
					return fmt.Errorf("%v: TDV %v != min %v", ck.ID(), ck.TDV, min)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExhaustiveBCSZigzagFreedom: over every schedule, BCS leaves no
// useless checkpoint — while the uncoordinated baseline does, in at least
// one schedule of the same scenario.
func TestExhaustiveBCSZigzagFreedom(t *testing.T) {
	countUseless := func(p *model.Pattern) (int, error) {
		chains, err := rgraph.NewChains(p)
		if err != nil {
			return 0, err
		}
		useless := 0
		for i := 0; i < p.N; i++ {
			for x := range p.Checkpoints[i] {
				if id := (model.CkptID{Proc: model.ProcID(i), Index: x}); chains.ZigzagNX(id, id) {
					useless++
				}
			}
		}
		return useless, nil
	}
	if _, err := Run(core.KindBCS, twoProcScenario(), func(_ []sim.Op, p *model.Pattern) error {
		useless, err := countUseless(p)
		if err != nil {
			return err
		}
		if useless > 0 {
			return fmt.Errorf("BCS produced %d useless checkpoints", useless)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sawUseless := false
	if _, err := Run(core.KindNone, twoProcScenario(), func(_ []sim.Op, p *model.Pattern) error {
		useless, err := countUseless(p)
		if err != nil {
			return err
		}
		if useless > 0 {
			sawUseless = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawUseless {
		t.Error("no uncoordinated schedule produced a useless checkpoint; scenario too tame")
	}
}

// TestExhaustiveBHMRNeverWorseThanFDAS compares forced-checkpoint counts
// schedule by schedule: summed over the whole space, the paper's protocol
// takes no more forced checkpoints than FDAS, and strictly fewer in at
// least one schedule. (Per-schedule counts can cross in either direction
// because decisions change the downstream run; the aggregate cannot.)
func TestExhaustiveBHMRNeverWorseThanFDAS(t *testing.T) {
	forcedTotal := func(kind core.Kind) int {
		total := 0
		if _, err := Run(kind, twoProcScenario(), func(_ []sim.Op, p *model.Pattern) error {
			total += p.Stats().Forced
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return total
	}
	bhmr := forcedTotal(core.KindBHMR)
	fdas := forcedTotal(core.KindFDAS)
	if bhmr >= fdas {
		t.Errorf("BHMR forced %d, FDAS %d over the full schedule space", bhmr, fdas)
	}
}

// TestCheckErrorsAbortWithSchedule: a failing check surfaces the schedule
// that produced the counterexample.
func TestCheckErrorsAbortWithSchedule(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(core.KindBHMR, threeProcScenario(), func(_ []sim.Op, _ *model.Pattern) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestExhaustiveRDTDeep covers a three-process scenario with checkpoints
// on every process — tens of thousands of schedules — for the paper's
// protocol. Skipped with -short.
func TestExhaustiveRDTDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep exploration skipped in short mode")
	}
	scripts := [][]Op{
		{Send(1), Checkpoint()},
		{Send(2), Checkpoint()},
		{Send(0), Checkpoint()},
	}
	res, err := Run(core.KindBHMR, scripts, func(_ []sim.Op, p *model.Pattern) error {
		rep, err := rgraph.CheckRDT(p, 1)
		if err != nil {
			return err
		}
		if !rep.RDT {
			return fmt.Errorf("RDT violated: %v", rep.Violations)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions < 10_000 {
		t.Errorf("deep scenario enumerated only %d schedules", res.Executions)
	}
	t.Logf("verified RDT over %d schedules", res.Executions)
}

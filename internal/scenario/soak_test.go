package scenario

import (
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/core"
)

// TestGenerateDeterministic: the same seed yields the same scenario and
// the same run, byte for byte — a soak failure is reproducible from its
// seed alone.
func TestGenerateDeterministic(t *testing.T) {
	run := func() string {
		res, err := Run(Generate(42, 30*time.Second), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Transcript
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("generated run not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestSoak runs a corpus of generated chaos scenarios covering at least
// one hour of simulated operation. Virtual time makes the hour cheap:
// the long idle gaps between event bursts advance instantly, so the
// whole soak fits in a few wall-clock seconds.
func TestSoak(t *testing.T) {
	const (
		runs = 16
		span = 5 * time.Minute
	)
	total := time.Duration(0)
	for seed := int64(1); seed <= runs; seed++ {
		sc := Generate(seed, span)
		res, err := Run(sc, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Passed() {
			t.Errorf("seed %d: %v", seed, res.Failures)
		}
		// The soak's real invariant: a protocol that guarantees RDT must
		// keep the property under every fault schedule thrown at it.
		if guaranteesRDT(sc.Protocol) && res.Verdict != "rdt" {
			t.Errorf("seed %d: protocol %v guarantees RDT but the run violated it\n%s",
				seed, sc.Protocol, res.Transcript)
		}
		total += res.SimTime
		t.Logf("seed=%d procs=%d protocol=%v verdict=%s delivered=%d lost=%d sim=%v",
			seed, sc.N, sc.Protocol, res.Verdict, res.Delivered, res.Lost, res.SimTime)
	}
	if total < time.Hour {
		t.Fatalf("soak covered only %v simulated, want >= 1h", total)
	}
	t.Logf("soak total: %v simulated", total)
}

func guaranteesRDT(k core.Kind) bool {
	for _, g := range core.RDTKinds() {
		if g == k {
			return true
		}
	}
	return false
}

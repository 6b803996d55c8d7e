package transport

import (
	"errors"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
)

func TestFaultyZeroConfigIsTransparent(t *testing.T) {
	testTransport(t, func(n int) Transport {
		return WithFaults(NewLocal(0), FaultConfig{Seed: 7})
	})
}

func TestFaultyDropsSilently(t *testing.T) {
	tr := WithFaults(NewLocal(0), FaultConfig{Seed: 1, Default: FaultProbs{Drop: 1}})
	defer tr.Close()
	var sink collector
	if err := tr.Register(1, sink.handler); err != nil {
		t.Fatalf("register: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := tr.Send(Frame{From: 0, To: 1, Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("drop must report success, got %v", err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if got := sink.count(); got != 0 {
		t.Errorf("%d frames survived a 100%% drop link", got)
	}
	if got := tr.Injected()[FaultDrop]; got != 10 {
		t.Errorf("drop count = %d, want 10", got)
	}
}

func TestFaultyDuplicates(t *testing.T) {
	tr := WithFaults(NewLocal(0), FaultConfig{Seed: 1, Default: FaultProbs{Duplicate: 1}})
	var sink collector
	if err := tr.Register(1, sink.handler); err != nil {
		t.Fatalf("register: %v", err)
	}
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := tr.Send(Frame{From: 0, To: 1, Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := tr.Close(); err != nil { // waits for deferred copies
		t.Fatalf("close: %v", err)
	}
	if got := sink.count(); got != 2*frames {
		t.Errorf("delivered %d frames, want %d (each duplicated)", got, 2*frames)
	}
}

func TestFaultyInjectsSendErrors(t *testing.T) {
	reg := obs.NewRegistry()
	tr := WithFaults(NewLocal(0), FaultConfig{
		Seed:    1,
		Default: FaultProbs{SendError: 1},
		Obs:     reg,
	})
	defer tr.Close()
	if err := tr.Register(1, func(Frame) {}); err != nil {
		t.Fatalf("register: %v", err)
	}
	err := tr.Send(Frame{From: 0, To: 1})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("send error = %v, want ErrInjected", err)
	}
	if got := reg.Counter("rdt_faults_injected_total", "kind", FaultSendError).Value(); got != 1 {
		t.Errorf("rdt_faults_injected_total{kind=send-error} = %d, want 1", got)
	}
}

func TestFaultyPartitionAndHeal(t *testing.T) {
	tr := WithFaults(NewLocal(0), FaultConfig{Seed: 1})
	defer tr.Close()
	var sink collector
	if err := tr.Register(1, sink.handler); err != nil {
		t.Fatalf("register: %v", err)
	}
	tr.Partition(0, 1)
	if err := tr.Send(Frame{From: 0, To: 1}); err != nil {
		t.Fatalf("partitioned send must report success, got %v", err)
	}
	if err := tr.Send(Frame{From: 1, To: 0}); err != nil { // both directions cut
		t.Fatalf("send: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	if sink.count() != 0 {
		t.Error("frame crossed a partition")
	}
	if got := tr.Injected()[FaultPartition]; got != 2 {
		t.Errorf("partition count = %d, want 2", got)
	}
	tr.Heal(0, 1)
	if err := tr.Send(Frame{From: 0, To: 1}); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	sink.waitFor(t, 1)
}

func TestFaultyReorderDeliversEverything(t *testing.T) {
	tr := WithFaults(NewLocal(0), FaultConfig{
		Seed:    3,
		Default: FaultProbs{Reorder: 0.5, MaxExtraDelay: 2 * time.Millisecond},
	})
	var sink collector
	if err := tr.Register(1, sink.handler); err != nil {
		t.Fatalf("register: %v", err)
	}
	const frames = 40
	for i := 0; i < frames; i++ {
		if err := tr.Send(Frame{From: 0, To: 1, Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := sink.count(); got != frames {
		t.Errorf("delivered %d, want %d (reorder must not lose frames)", got, frames)
	}
	if tr.Injected()[FaultReorder] == 0 {
		t.Error("no reorders injected at probability 0.5 over 40 frames")
	}
}

func TestFaultyDeterministicSchedule(t *testing.T) {
	run := func(seed int64) map[string]int64 {
		tr := WithFaults(NewLocal(0), FaultConfig{
			Seed:    seed,
			Default: FaultProbs{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, SendError: 0.1},
		})
		if err := tr.Register(1, func(Frame) {}); err != nil {
			t.Fatalf("register: %v", err)
		}
		for i := 0; i < 100; i++ {
			_ = tr.Send(Frame{From: 0, To: 1, Data: []byte{byte(i)}})
		}
		counts := tr.Injected()
		_ = tr.Close()
		return counts
	}
	a, b := run(42), run(42)
	for _, kind := range []string{FaultDrop, FaultDuplicate, FaultReorder, FaultSendError} {
		if a[kind] != b[kind] {
			t.Errorf("kind %s: %d vs %d across identical seeds", kind, a[kind], b[kind])
		}
	}
	c := run(43)
	same := true
	for _, kind := range []string{FaultDrop, FaultDuplicate, FaultReorder, FaultSendError} {
		if a[kind] != c[kind] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical fault schedule")
	}
}

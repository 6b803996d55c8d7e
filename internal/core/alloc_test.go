package core

import (
	"testing"
)

// TestOnSendAllocBudget locks in the piggyback snapshot cache: a burst of
// sends with no intervening checkpoint or delivery must reuse one cached
// snapshot, so steady-state OnSend allocates nothing. The budgets are
// deliberately tight — a regression to per-send cloning fails immediately.
func TestOnSendAllocBudget(t *testing.T) {
	const n = 8
	for _, kind := range Kinds() {
		if kind == KindCAS {
			// CAS closes the interval after every send, so each send
			// legitimately rebuilds the snapshot.
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			inst, err := New(kind, 0, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst.OnSend(1) // warm the snapshot cache
			avg := testing.AllocsPerRun(200, func() {
				inst.OnSend(1)
			})
			if avg > 0 {
				t.Errorf("steady-state OnSend allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestSendIntoAllocBudget: SendInto writes into the caller's piggyback,
// so a send allocates nothing for any protocol, even when the state
// changed since the previous send.
func TestSendIntoAllocBudget(t *testing.T) {
	const n = 8
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			inst, err := New(kind, 0, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			dst := kind.NewPiggyback(n)
			avg := testing.AllocsPerRun(200, func() {
				inst.TakeBasicCheckpoint()
				if inst.SendInto(1, &dst) {
					inst.CheckpointAfterSend()
				}
			})
			if avg > 0 {
				t.Errorf("SendInto allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestOnSendSnapshotInvalidation verifies the cache is dropped on every
// state mutation: snapshots taken before and after a checkpoint or a
// delivery must differ, and earlier snapshots must stay intact.
func TestOnSendSnapshotInvalidation(t *testing.T) {
	inst, err := New(KindBHMR, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb1, _ := inst.OnSend(1)
	inst.TakeBasicCheckpoint()
	pb2, _ := inst.OnSend(1)
	if pb1.TDV[0] != 1 || pb2.TDV[0] != 2 {
		t.Fatalf("snapshots not invalidated across checkpoint: %v then %v", pb1.TDV, pb2.TDV)
	}

	// A delivery merges state: the next send must see the new dependency,
	// while the pre-delivery snapshot stays frozen.
	peer, err := New(KindBHMR, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer.TakeBasicCheckpoint()
	peerPB, _ := peer.OnSend(0)
	inst.OnArrival(1, peerPB)
	pb3, _ := inst.OnSend(1)
	if pb3.TDV[1] != peerPB.TDV[1] {
		t.Errorf("post-delivery snapshot misses merged dependency: %v", pb3.TDV)
	}
	if pb2.TDV[1] == pb3.TDV[1] {
		t.Errorf("pre-delivery snapshot mutated in place: %v", pb2.TDV)
	}
}

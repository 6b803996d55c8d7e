package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// scribble overwrites every buffer of pb with random contents, as a
// caller reusing it for its next message would.
func scribble(pb *Piggyback, rng *rand.Rand) {
	for k := range pb.TDV {
		pb.TDV[k] = rng.Intn(100)
	}
	for k := range pb.Simple {
		pb.Simple[k] = rng.Intn(2) == 0
	}
	if m := pb.Causal; m != nil {
		for c := 0; c < m.N()*m.N(); c++ {
			m.Set(c/m.N(), c%m.N(), rng.Intn(2) == 0)
		}
	}
}

// TestSendIntoMatchesOnSend drives two systems of every protocol through
// the same random sends, arrivals, basic checkpoints and after-send
// checkpoints. System a sends with OnSend, system b with SendInto into
// one piggyback it reuses for every send and scribbles over right after
// the call. Every piggyback must equal OnSend's, nil fields included,
// every forceAfter and forced result must agree, the instances must keep
// the same vectors, and the two checkpoint record streams must be equal.
func TestSendIntoMatchesOnSend(t *testing.T) {
	const n, steps = 5, 4000
	type message struct {
		from, to int
		a, b     Piggyback
	}
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind)))
			var recA, recB recorder
			a, b := make([]Instance, n), make([]Instance, n)
			for i := range a {
				var err error
				if a[i], err = New(kind, i, n, recA.sink); err != nil {
					t.Fatal(err)
				}
				if b[i], err = New(kind, i, n, recB.sink); err != nil {
					t.Fatal(err)
				}
			}
			dst := kind.NewPiggyback(n)
			var flying []message
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(10); {
				case r < 5 || len(flying) == 0:
					from := rng.Intn(n)
					to := (from + 1 + rng.Intn(n-1)) % n
					pa, forceA := a[from].OnSend(to)
					forceB := b[from].SendInto(to, &dst)
					if forceA != forceB {
						t.Fatalf("step %d: send %d->%d: forceAfter %v with OnSend, %v with SendInto", step, from, to, forceA, forceB)
					}
					if !reflect.DeepEqual(pa, dst) {
						t.Fatalf("step %d: send %d->%d: SendInto wrote %+v, OnSend returned %+v", step, from, to, dst, pa)
					}
					flying = append(flying, message{from: from, to: to, a: pa, b: dst.Clone()})
					scribble(&dst, rng)
					// CAS asks for the after-send checkpoint; the other
					// protocols take the same forced checkpoint when asked.
					if forceA || rng.Intn(8) == 0 {
						a[from].CheckpointAfterSend()
						b[from].CheckpointAfterSend()
					}
				case r < 8:
					k := rng.Intn(len(flying))
					m := flying[k]
					flying = append(flying[:k], flying[k+1:]...)
					forcedA, forcedB := a[m.to].OnArrival(m.from, m.a), b[m.to].OnArrival(m.from, m.b)
					if forcedA != forcedB {
						t.Fatalf("step %d: arrival %d->%d: forced %v after OnSend, %v after SendInto", step, m.from, m.to, forcedA, forcedB)
					}
				default:
					p := rng.Intn(n)
					a[p].TakeBasicCheckpoint()
					b[p].TakeBasicCheckpoint()
				}
				for i := range a {
					if va, vb := a[i].TDV(), b[i].TDV(); !reflect.DeepEqual(va, vb) {
						t.Fatalf("step %d: P%d holds %v after OnSend, %v after SendInto", step, i, va, vb)
					}
				}
			}
			if len(recA.recs) <= n {
				t.Fatalf("only %d checkpoints in %d steps", len(recA.recs), steps)
			}
			if !reflect.DeepEqual(recA.recs, recB.recs) {
				t.Errorf("checkpoint records differ: %d with OnSend, %d with SendInto", len(recA.recs), len(recB.recs))
			}
		})
	}
}

package service

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// hasSlot reports whether the lifecycle table holds any slot for id.
func hasSlot(svc *Service, id string) bool {
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	_, ok := svc.slots[id]
	return ok
}

// within fails the test if fn has not returned by the deadline.
func within(t *testing.T, what string, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestTransitionsAfterDrainReturn: Drain runs every worker out but leaves
// the sessions queryable, so a transition that follows it finds a live
// session whose worker will never come by the table again. Each must
// still return, and leave no slot behind for the id. (With a separate
// retiring set the eviction parked the session there for good, and the
// next transition spun on its long-closed workerDone.)
func TestTransitionsAfterDrainReturn(t *testing.T) {
	const id = "x"
	cases := map[string]func(t *testing.T, svc *Service){
		"export": func(t *testing.T, svc *Service) {
			files, err := svc.ExportSession(id)
			if err != nil || files["meta.json"] == nil || files["wal.log"] == nil {
				t.Errorf("export: %d files, err %v", len(files), err)
			}
		},
		"passivate": func(t *testing.T, svc *Service) {
			if !svc.Passivate(id, "test") {
				t.Error("passivate: session was not live")
			}
		},
		"evict+session": func(t *testing.T, svc *Service) {
			if !svc.Evict(id, "idle") {
				t.Error("evict: session was not live")
			}
			if _, err := svc.Session(id); !errors.Is(err, ErrDraining) {
				t.Errorf("session after evict: %v, want ErrDraining", err)
			}
		},
		"drop": func(t *testing.T, svc *Service) {
			svc.Evict(id, "idle")
			if !svc.DropPassivated(id) {
				t.Error("drop: nothing deleted")
			}
			if _, err := os.Stat(svc.sessionDir(id)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("drop: directory still there (%v)", err)
			}
		},
		"delete": func(t *testing.T, svc *Service) {
			if !svc.Evict(id, "explicit") {
				t.Error("delete: session was not live")
			}
			if _, err := os.Stat(svc.sessionDir(id)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("delete: directory still there (%v)", err)
			}
		},
	}
	for name, transition := range cases {
		t.Run(name, func(t *testing.T) {
			svc, _ := newDurableService(t.TempDir())
			sess := mustCreate(t, svc, id, 2)
			feed(t, rand.New(rand.NewSource(1)), sess, genWorkload(rand.New(rand.NewSource(2)), 2, 20))
			drainNow(t, svc)
			within(t, name+" after Drain", 5*time.Second, func() { transition(t, svc) })
			if hasSlot(svc, id) {
				t.Errorf("the table still holds a slot for %q", id)
			}
		})
	}
}

// TestLifecycleChurn drives every transition of the lifecycle table from
// 8 goroutines over 3 ids of a durable service. Lookups, creates, idle
// evictions and passivations run unguarded. A feed round — count, enqueue
// k events, passivate, reactivate, count again — shares its id with
// them, with export→import round trips and with feed rounds' evictions,
// but not with another feed round nor with the transitions that
// legitimately lose state (explicit delete, drop, move out and back in):
// those take the id's guard exclusively, so an image exported from one
// incarnation of an id is never imported over the next. Whatever
// interleaving the table sees, then, a session fed k events reports
// exactly k more afterwards, and a session moved out and back reports
// what it did before.
func TestLifecycleChurn(t *testing.T) {
	const workers, n = 8, 2
	rounds := 150
	if testing.Short() {
		rounds = 50
	}
	ids := []string{"a", "b", "c"}
	svc, _ := newDurableService(t.TempDir())
	guard := make(map[string]*sync.RWMutex)
	feeding := make(map[string]*sync.Mutex)
	for _, id := range ids {
		guard[id], feeding[id] = new(sync.RWMutex), new(sync.Mutex)
	}

	// open returns the id's session, creating it if no copy exists.
	open := func(id string) *Session {
		for {
			sess, err := svc.Session(id)
			if errors.Is(err, ErrNoSession) && !strings.Contains(err.Error(), "unrecoverable") {
				sess, err = svc.CreateSession(id, n)
			}
			if err == nil {
				return sess
			}
			if !errors.Is(err, ErrSessionExists) && !errors.Is(err, ErrNoSession) {
				t.Errorf("open %q: %v", id, err)
				return nil
			}
		}
	}
	// applied is the id's applied count once everything accepted so far
	// is in; an eviction under the flush sends it round again.
	applied := func(id string) int64 {
		for {
			sess := open(id)
			if sess == nil {
				return -1
			}
			if err := flush(t, sess); err == nil {
				return sess.Verdict(0).EventsApplied
			} else if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBackpressure) {
				t.Errorf("flush %q: %v", id, err)
				return -1
			}
		}
	}
	export := func(id string) map[string][]byte {
		files, err := svc.ExportSession(id)
		if err != nil && !errors.Is(err, ErrNoSession) && !strings.Contains(err.Error(), "keeps reactivating") {
			t.Errorf("export %q: %v", id, err)
		}
		return files
	}
	imp := func(id string, files map[string][]byte) {
		if err := svc.ImportSession(id, files); err != nil && !errors.Is(err, ErrSessionLive) {
			t.Errorf("import %q: %v", id, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for r := 0; r < rounds && !t.Failed(); r++ {
				id := ids[rng.Intn(len(ids))]
				switch op := rng.Intn(12); op {
				case 0:
					if _, err := svc.CreateSession(id, n); err != nil && !errors.Is(err, ErrSessionExists) {
						t.Errorf("create %q: %v", id, err)
					}
				case 1:
					if sess, err := svc.Session(id); err == nil {
						sess.Verdict(0)
					} else if !errors.Is(err, ErrNoSession) || strings.Contains(err.Error(), "unrecoverable") {
						t.Errorf("session %q: %v", id, err)
					}
					seen := make(map[string]bool)
					for _, info := range svc.Sessions() {
						if seen[info.ID] {
							t.Errorf("Sessions() lists %q twice", info.ID)
						}
						seen[info.ID] = true
					}
				case 2:
					svc.Evict(id, "idle")
				case 3:
					svc.Passivate(id, "churn")
				case 4:
					guard[id].RLock()
					if files := export(id); files != nil {
						imp(id, files)
					}
					guard[id].RUnlock()
				case 5, 6, 7, 8: // a feed round
					guard[id].RLock()
					feeding[id].Lock()
					before := applied(id)
					k := 1 + rng.Intn(4)
					for i := 0; i < k && before >= 0; {
						sess := open(id)
						if sess == nil {
							break
						}
						err := sess.Enqueue([]Event{{Op: OpCheckpoint, Proc: rng.Intn(n)}})
						if err == nil {
							i++
						} else if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBackpressure) {
							t.Errorf("enqueue %q: %v", id, err)
							break
						}
					}
					svc.Passivate(id, "round")
					if after := applied(id); before >= 0 && after >= 0 && after != before+int64(k) {
						t.Errorf("%q: %d applied before a round of %d events, %d after", id, before, k, after)
					}
					feeding[id].Unlock()
					guard[id].RUnlock()
				case 9:
					guard[id].Lock()
					svc.Evict(id, "explicit")
					guard[id].Unlock()
				case 10:
					guard[id].Lock()
					svc.Evict(id, "idle")
					svc.DropPassivated(id)
					guard[id].Unlock()
				case 11: // move out and back in
					guard[id].Lock()
					before := applied(id)
					if files := export(id); files != nil {
						svc.DropPassivated(id)
						imp(id, files)
						if after := applied(id); before >= 0 && after != before {
							t.Errorf("%q: %d applied before moving out and back, %d after", id, before, after)
						}
					}
					guard[id].Unlock()
				}
			}
		}()
	}
	within(t, "the churn", 120*time.Second, wg.Wait)

	for _, id := range ids { // no retirement is still in flight at quiesce
		svc.Passivate(id, "quiesce")
		open(id)
	}
	svc.mu.RLock()
	slots := len(svc.slots)
	svc.mu.RUnlock()
	if live := svc.SessionCount(); slots != live || live != len(ids) {
		t.Errorf("at quiesce: %d slots, %d live sessions, want %d of each", slots, live, len(ids))
	}
	entries, err := os.ReadDir(svc.sessionsRoot())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "#") {
			t.Errorf("leftover %s", e.Name())
		}
	}
	drainNow(t, svc)
	for _, id := range ids {
		within(t, fmt.Sprintf("export %q after Drain", id), 5*time.Second, func() { export(id) })
	}
}

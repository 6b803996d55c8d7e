package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/trace"
	"github.com/rdt-go/rdt/internal/wal"
)

func traceBytes(t *testing.T, sess *Session) []byte {
	t.Helper()
	p, _, err := sess.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Save(&buf, p); err != nil {
		t.Fatalf("save trace: %v", err)
	}
	return buf.Bytes()
}

// resealSnapshot rewrites a snapshot file's body and recomputes the
// trailing CRC, so the damage under test is the only thing wrong with it.
func resealSnapshot(t *testing.T, path string, edit func(body []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	body := edit(data[:len(data)-4])
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
}

// TestUnusableSnapshotsFallBackToWAL: a snapshot of the previous file
// revision, and one whose WAL offset points into the middle of a record,
// are both quarantined like a corrupt file; the session comes back
// through WAL replay with the verdict, recovery line and pattern of the
// run that was never interrupted.
func TestUnusableSnapshotsFallBackToWAL(t *testing.T) {
	damages := map[string]func(body []byte) []byte{
		"old-revision": func(body []byte) []byte {
			return append([]byte("RDTSNAP2"), body[len(snapMagic):]...)
		},
		"mid-record": func(body []byte) []byte {
			off, k := binary.Uvarint(body[len(snapMagic):])
			out := binenc.AppendUvarint(append([]byte(nil), snapMagic...), off-3)
			return append(out, body[len(snapMagic)+k:]...)
		},
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(23))
			events := genWorkload(rng, 3, 150)

			svc, _ := newDurableService(dir, 8)
			sess := mustCreate(t, svc, "snap", 3)
			feed(t, rng, sess, events)
			want := sess.Verdict(0)
			wantLine, err := sess.Line()
			if err != nil {
				t.Fatalf("line: %v", err)
			}
			wantTrace := traceBytes(t, sess)
			drainNow(t, svc)

			sessDir := filepath.Join(dir, "sessions", "snap")
			seqs, err := snapSeqs(sessDir)
			if err != nil || len(seqs) == 0 {
				t.Fatalf("snapshots on disk: %v, %v", seqs, err)
			}
			for _, seq := range seqs {
				resealSnapshot(t, filepath.Join(sessDir, snapName(seq)), damage)
			}

			rec, _ := newDurableService(dir, 8)
			defer drainNow(t, rec)
			stats, err := rec.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if stats.QuarantinedSnapshots != len(seqs) {
				t.Fatalf("quarantined %d snapshots, want %d", stats.QuarantinedSnapshots, len(seqs))
			}
			if stats.Records == 0 || stats.Events != want.EventsApplied {
				t.Fatalf("replayed %d records / %d events, want the whole WAL (%d events)",
					stats.Records, stats.Events, want.EventsApplied)
			}
			got, err := rec.Session("snap")
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			if gv := got.Verdict(0); verdictJSON(t, gv) != verdictJSON(t, want) {
				t.Fatalf("verdict changed:\n  %s\n  %s", verdictJSON(t, gv), verdictJSON(t, want))
			}
			gotLine, err := got.Line()
			if err != nil || !reflect.DeepEqual(gotLine, wantLine) {
				t.Fatalf("recovery line changed: %+v (%v) != %+v", gotLine, err, wantLine)
			}
			if gotTrace := traceBytes(t, got); !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("pattern changed:\n  %s\n  %s", gotTrace, wantTrace)
			}
		})
	}
}

// TestWALRotBelowSnapshot: one flipped bit in a WAL record that a
// snapshot already covers costs the session its pattern and nothing else.
// The snapshot is not blamed for it, no byte of the WAL is cut, and the
// verdict, recovery line, dedup watermarks and further ingestion carry on
// from the snapshot and the records past it — across a second restart too.
func TestWALRotBelowSnapshot(t *testing.T) {
	live, crash := t.TempDir(), t.TempDir()
	rng := rand.New(rand.NewSource(29))
	events := genWorkload(rng, 3, 160)
	before, after := events[:150], events[150:]

	svc, _ := newDurableService(live, 8)
	sess := mustCreate(t, svc, "rot", 3)
	feed(t, rng, sess, before)
	want := sess.Verdict(0)
	wantLine, err := sess.Line()
	if err != nil {
		t.Fatalf("line: %v", err)
	}
	// A kill -9 image: snapshots behind, an un-snapshotted tail ahead.
	image := filepath.Join(crash, "sessions", "rot")
	sess.mu.Lock()
	copyDir(t, filepath.Join(live, "sessions", "rot"), image)
	sess.mu.Unlock()
	feed(t, rng, sess, after)
	wantAfter := sess.Verdict(0)
	drainNow(t, svc)

	walPath := filepath.Join(image, "wal.log")
	rotten, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	rotten[wal.HeaderSize+1] ^= 0x40 // inside the first record's payload
	if err := os.WriteFile(walPath, rotten, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}
	snaps, err := snapSeqs(image)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots in the image: %v, %v", snaps, err)
	}
	peek, err := stateOfDir(image)
	if err != nil {
		t.Fatalf("stateOfDir: %v", err)
	}

	for restart, wantNow := range []*Verdict{want, wantAfter} {
		rec, _ := newDurableService(crash, 8)
		stats, err := rec.Recover()
		if err != nil {
			t.Fatalf("restart %d: recover: %v", restart, err)
		}
		if stats.Sessions != 1 || stats.Truncations != 0 || stats.QuarantinedSnapshots != 0 || stats.QuarantinedSessions != 0 {
			t.Fatalf("restart %d: recover stats %+v: want the session back, nothing cut, nothing quarantined", restart, stats)
		}
		if restart == 0 && stats.Records == 0 {
			t.Fatal("the image has no un-snapshotted tail; the test lost its coverage of the replay past the snapshot")
		}
		onDisk, err := os.ReadFile(walPath)
		if err != nil || !bytes.HasPrefix(onDisk, rotten) {
			t.Fatalf("restart %d: the WAL was rewritten (%d bytes, was %d): %v", restart, len(onDisk), len(rotten), err)
		}
		got, err := rec.Session("rot")
		if err != nil {
			t.Fatalf("restart %d: session: %v", restart, err)
		}
		if gv := got.Verdict(0); verdictJSON(t, gv) != verdictJSON(t, wantNow) {
			t.Fatalf("restart %d: verdict changed:\n  %s\n  %s", restart, verdictJSON(t, gv), verdictJSON(t, wantNow))
		}
		if _, _, err := got.Snapshot(); !errors.Is(err, errLogDamaged) {
			t.Fatalf("restart %d: Snapshot() error %v, want errLogDamaged", restart, err)
		}
		if _, _, err := got.Explain(0); !errors.Is(err, errLogDamaged) {
			t.Fatalf("restart %d: Explain() error %v, want errLogDamaged", restart, err)
		}
		if restart == 0 {
			gotLine, err := got.Line()
			if err != nil || !reflect.DeepEqual(gotLine, wantLine) {
				t.Fatalf("recovery line changed: %+v (%v) != %+v", gotLine, err, wantLine)
			}
			if full := got.durableState(); peek.applied != full.applied || !reflect.DeepEqual(peek.prodSeq, full.prodSeq) {
				t.Fatalf("stateOfDir %+v, full load %+v", peek, full)
			}
			feed(t, rng, got, after)
			if gv := got.Verdict(0); verdictJSON(t, gv) != verdictJSON(t, wantAfter) {
				t.Fatalf("ingestion after the rot diverged:\n  %s\n  %s", verdictJSON(t, gv), verdictJSON(t, wantAfter))
			}
		}
		drainNow(t, rec)
	}
}

// TestEnqueueNeverWaitsOnPersistence parks the worker where it holds
// the session lock across disk I/O (right after a WAL append) and
// requires admission — accept or backpressure — to return regardless: a
// stream connection multiplexes many sessions through one read loop, so
// an enqueue that waits on one session's fsync stalls them all.
func TestEnqueueNeverWaitsOnPersistence(t *testing.T) {
	svc, _ := newDurableService(t.TempDir(), 1<<20)
	sess := mustCreate(t, svc, "parked", 2)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookAppended = func(string) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	defer func() {
		drainNow(t, svc) // the worker reads the hook until it has exited
		testHookAppended = nil
	}()

	ck := []Event{{Op: OpCheckpoint, Proc: 0}}
	if err := sess.Enqueue(ck); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	<-parked
	done := make(chan error, 1)
	go func() {
		err := sess.Enqueue(ck)
		if err == nil {
			_, err = sess.EnqueueSeq("p", 1, ck, false, nil)
		}
		sess.closeQueue() // nor may eviction wait on the worker
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("enqueue while the worker is parked: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("enqueue waited on a worker parked in persistence")
	}
	close(release)
}

// TestStateOfDirMatchesLoad: on kill -9 images taken at the crash seams,
// the header-only peek ImportSession compares copies with reports the
// watermarks and applied count a full load of the same image restores.
func TestStateOfDirMatchesLoad(t *testing.T) {
	seeds := 90
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			n := 2 + rng.Intn(3)
			events := genWorkload(rng, n, 10+rng.Intn(40))
			mode := seed % crashModes
			trigger := 1 + rng.Intn(8)
			id := fmt.Sprintf("peek-%d", seed)

			root := t.TempDir()
			liveDir, crashDir := filepath.Join(root, "live"), filepath.Join(root, "crash")
			image := filepath.Join(crashDir, "sessions", id)
			svc, _ := newDurableService(liveDir, 1+rng.Intn(6))

			// The worker is the only goroutine that reaches the hooks, so the
			// counters need no lock; the copy runs under the session lock.
			fired, captured := 0, false
			capture := func(sid string) {
				if fired++; sid == id && fired >= trigger && !captured {
					captured = true
					copyDir(t, filepath.Join(liveDir, "sessions", id), image)
				}
			}
			switch mode {
			case crashAfterAppend:
				testHookAppended = capture
			case crashAfterApply:
				testHookApplied = capture
			case crashMidSnapshot:
				storage.TestingBeforeRename = func(path string) {
					if strings.Contains(path, filepath.Join("sessions", id, "snap_")) {
						capture(id)
					}
				}
			}
			defer func() {
				testHookAppended, testHookApplied, storage.TestingBeforeRename = nil, nil, nil
			}()

			sess := mustCreate(t, svc, id, n)
			seqs := map[string]uint64{}
			for len(events) > 0 {
				k := min(1+rng.Intn(6), len(events))
				producer := fmt.Sprintf("p%d", rng.Intn(2))
				seqs[producer]++
				if dup, err := retrySeq(sess, producer, seqs[producer], events[:k]); dup || err != nil {
					t.Fatalf("enqueue seq: dup=%v err=%v", dup, err)
				}
				events = events[k:]
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := sess.Seal(ctx); err != nil {
				t.Fatalf("seal: %v", err)
			}
			testHookAppended, testHookApplied, storage.TestingBeforeRename = nil, nil, nil
			if !captured {
				sess.mu.Lock()
				copyDir(t, filepath.Join(liveDir, "sessions", id), image)
				sess.mu.Unlock()
			}
			drainNow(t, svc)

			peek, err := stateOfDir(image)
			if err != nil {
				t.Fatalf("stateOfDir: %v", err)
			}
			rec, _ := newDurableService(crashDir, 4)
			defer drainNow(t, rec)
			loaded, _, err := rec.loadSession(id)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			defer loaded.dur.closeLocked()
			full := loaded.durableState()
			if peek.applied != full.applied || !reflect.DeepEqual(peek.prodSeq, full.prodSeq) {
				t.Fatalf("mode %d trigger %d: stateOfDir %+v, full load %+v", mode, trigger, peek, full)
			}
		})
	}
}

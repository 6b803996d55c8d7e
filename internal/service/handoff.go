package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/storage"
)

// Shard handoff support. The cluster layer (internal/shard) moves a
// session between daemons as passivate → ship the session directory →
// reactivate: ExportSession turns a live session back into its on-disk
// form and returns the files, ImportSession installs those files under
// a new owner's root, and DropPassivated deletes the old copy once the
// new owner acknowledges. All three hold the session's slot in the
// lifecycle table (liveOrHold), so they cannot interleave with a
// reactivation — and in shard mode the ownership gate has already stopped
// routing traffic at the exporting side, so nothing reactivates the
// session mid-move.

// ErrSessionLive is returned by ImportSession when the local copy of
// the session already covers the imported image: every producer
// watermark and the applied count are at least the image's. The sender
// may safely drop its copy — nothing in it is missing here.
var ErrSessionLive = errors.New("session already present")

// ErrStateDiverged is returned by ImportSession when the local copy
// and the imported image each hold state the other lacks (one producer
// ahead here, another ahead there). Same-lineage copies cannot do
// this; it means a session forked. The import is refused and the
// sender MUST NOT drop its copy — both need manual reconciliation.
var ErrStateDiverged = errors.New("session state diverged")

// Live reports whether the session is currently in memory.
func (s *Service) Live(id string) bool { return s.live(id) != nil }

// HasLocal reports whether this daemon holds any state for the session:
// live in memory, or — retiring or passivated — in its directory.
func (s *Service) HasLocal(id string) bool {
	if s.Live(id) {
		return true
	}
	if !s.durable() || !validSessionID(id) {
		return false
	}
	_, err := os.Stat(s.sessionDir(id))
	return err == nil
}

// SessionsOnDisk lists every session directory under the data root,
// sorted — live and passivated alike (a live durable session owns its
// directory too). Empty on a non-durable service.
func (s *Service) SessionsOnDisk() ([]string, error) {
	if !s.durable() {
		return nil, nil
	}
	entries, err := os.ReadDir(s.sessionsRoot())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("scan sessions: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && validSessionID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Passivate evicts a live session to disk and waits for the worker to
// finish retiring, so the directory is complete and closed when
// Passivate returns. It reports whether the session was live. The
// reason labels the eviction counter.
func (s *Service) Passivate(id, reason string) bool {
	sess := s.live(id)
	if sess == nil {
		return false
	}
	// Losing the Evict race is fine: whoever won also closed the queue,
	// and the workerDone wait below covers both.
	s.Evict(id, reason)
	<-sess.workerDone
	return true
}

// exportableFile names the two files of a session directory: the
// handoff image is these and nothing else.
func exportableFile(name string) bool { return name == "meta.json" || name == "wal.log" }

// ExportSession passivates the session if it is live and returns its
// directory's files (meta.json and wal.log), keyed by name. The caller
// must already have stopped routing the session's traffic here (in
// shard mode the ownership gate does); a session that keeps
// reactivating underneath the export fails after a few attempts rather
// than looping.
func (s *Service) ExportSession(id string) (map[string][]byte, error) {
	if !s.durable() {
		return nil, errors.New("export: service is not durable")
	}
	if !validSessionID(id) {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	for tries := 0; tries <= 8; tries++ {
		sess, held := s.liveOrHold(id)
		if sess != nil {
			s.Passivate(id, "handoff")
			continue
		}
		files, err := s.readSessionDir(id)
		s.release(id, held)
		return files, err
	}
	return nil, fmt.Errorf("export %q: session keeps reactivating", id)
}

// readSessionDir reads a passivated session's files; the caller holds
// the id.
func (s *Service) readSessionDir(id string) (map[string][]byte, error) {
	dir := s.sessionDir(id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
		}
		return nil, fmt.Errorf("export %q: %w", id, err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() || !exportableFile(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("export %q: %w", id, err)
		}
		files[e.Name()] = data
	}
	if _, ok := files["meta.json"]; !ok {
		return nil, fmt.Errorf("export %q: no meta.json", id)
	}
	return files, nil
}

// imageState is the comparable summary of one copy of a session's
// durable state: the per-producer watermark of frames in the WAL plus
// the events its records hold, applied or not. Copies of the same
// lineage form a prefix chain of records, so "covers" is a sound
// better-or-equal order; two copies where neither covers the other have
// forked.
type imageState struct {
	prodSeq map[string]uint64
	events  int64
}

// add counts one record into the summary.
func (st *imageState) add(rec *record) {
	if rec.seq > st.prodSeq[rec.producer] { // seq 0: not a stream frame
		st.prodSeq[rec.producer] = rec.seq
	}
	st.events += int64(rec.count)
}

// covers reports whether a holds everything b does.
func (a imageState) covers(b imageState) bool {
	for p, seq := range b.prodSeq {
		if a.prodSeq[p] < seq {
			return false
		}
	}
	return a.events >= b.events
}

// strictlyCovers reports whether a covers b and holds more.
func (a imageState) strictlyCovers(b imageState) bool { return a.covers(b) && !b.covers(a) }

// durableState summarizes the live session's records — what a
// passivation right now would leave on disk (modulo queued batches,
// which drain into the log before any passivated comparison).
func (s *Session) durableState() imageState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := imageState{prodSeq: make(map[string]uint64)}
	for r := binenc.NewReader(s.log); r.Remaining() > 0; {
		rec, err := recordHeader(r.Bytes())
		if err != nil {
			break // unreachable: every logged record was checked
		}
		st.add(&rec)
	}
	return st
}

// stateOfDir peeks a passivated session directory's durable state
// without installing it: scanDir with the records counted, not applied
// (nothing is truncated) — by construction the summary of what
// activation would restore from the copy.
func stateOfDir(dir string) (imageState, error) {
	st := imageState{prodSeq: make(map[string]uint64)}
	_, _, err := scanDir(dir, st.add)
	return st, err
}

// ImportSession installs a session directory shipped from another
// daemon. The files land under a temporary name and are renamed into
// place, so a crash mid-import leaves no half session; the session
// stays passivated — the first touch reactivates it through the normal
// load path, which also reseeds the stream dedup watermark.
//
// A local copy of the id is resolved by durable watermark, not by
// arrival order: under churned membership the same session legitimately
// exports at different points in its life (an early copy passivated at
// one member, a later copy grown elsewhere), and first-wins would let a
// stale copy beat the real state and get it dropped. If the local copy
// covers the image, ErrSessionLive tells the sender its copy is
// redundant (safe to drop). If the image strictly covers the local copy
// — including a live session, which is then a stale incarnation and is
// passivated out from under its clients; they resume onto the newer
// state — the image replaces it. If neither covers the other the
// session has forked: ErrStateDiverged, and the sender must keep its
// copy.
func (s *Service) ImportSession(id string, files map[string][]byte) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if !s.durable() {
		return errors.New("import: service is not durable")
	}
	if !validSessionID(id) {
		return fmt.Errorf("import: invalid session id %q", id)
	}
	if _, ok := files["meta.json"]; !ok {
		return fmt.Errorf("import %q: no meta.json", id)
	}
	image := make(map[string][]byte, 2)
	for name, data := range files {
		switch {
		case exportableFile(name):
			image[name] = data
		case strings.HasPrefix(name, "snap_"):
			// A snapshot shipped by a member on an earlier build: derived
			// state the WAL beside it holds in full.
		default:
			return fmt.Errorf("import %q: unexpected file %q", id, name)
		}
	}

	// Stage the image first ('#' is rejected by validSessionID, so the
	// staging name can never collide with a real session directory) and
	// summarize it once for every comparison below.
	tmp, err := os.MkdirTemp(s.sessionsRoot(), "#import#"+id+"#")
	if err != nil {
		return fmt.Errorf("import %q: %w", id, err)
	}
	defer os.RemoveAll(tmp) //nolint:errcheck // no-op once renamed into place
	for name, data := range image {
		if err := storage.WriteFileDurable(filepath.Join(tmp, name), data); err != nil {
			return fmt.Errorf("import %q: %w", id, err)
		}
	}
	img, err := stateOfDir(tmp)
	if err != nil {
		return fmt.Errorf("import %q: %w", id, err)
	}

	for {
		sess, held := s.liveOrHold(id)
		if sess == nil {
			err := s.installImport(id, tmp, img)
			s.release(id, held)
			return err
		}
		if sess.durableState().covers(img) {
			return fmt.Errorf("%w: %q is live", ErrSessionLive, id)
		}
		// The image holds state the live session's durable counters
		// lack: either the live session is a stale incarnation of
		// this state, or its queued batches have not drained into
		// the counters yet. Passivating settles both — clients
		// resume onto whichever copy the on-disk comparison keeps.
		s.Passivate(id, "superseded")
	}
}

// installImport resolves the staged image against whatever is on disk
// and renames it into place if it wins; the caller holds the id.
func (s *Service) installImport(id, tmp string, img imageState) error {
	dir := s.sessionDir(id)
	if _, err := os.Stat(dir); err == nil {
		cur, err := stateOfDir(dir)
		if err != nil {
			return fmt.Errorf("import %q: inspect local copy: %w", id, err)
		}
		if cur.covers(img) {
			return fmt.Errorf("%w: %q is on disk", ErrSessionLive, id)
		}
		if !img.strictlyCovers(cur) {
			return fmt.Errorf("%w: %q", ErrStateDiverged, id)
		}
		// The image strictly covers the local copy: replace it. The
		// displaced copy moves to the '#old#' namespace first (rename
		// cannot clobber a non-empty directory); recovery restores or
		// clears such leftovers if we crash between the renames.
		old := filepath.Join(s.sessionsRoot(), "#old#"+id)
		_ = os.RemoveAll(old)
		if err := os.Rename(dir, old); err != nil {
			return fmt.Errorf("import %q: displace local copy: %w", id, err)
		}
		if err := os.Rename(tmp, dir); err != nil {
			_ = os.Rename(old, dir) // put the local copy back
			return fmt.Errorf("import %q: %w", id, err)
		}
		_ = os.RemoveAll(old)
		if err := storage.SyncDir(s.sessionsRoot()); err != nil {
			return fmt.Errorf("import %q: %w", id, err)
		}
		return nil
	}
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("import %q: %w", id, err)
	}
	if err := storage.SyncDir(s.sessionsRoot()); err != nil {
		return fmt.Errorf("import %q: %w", id, err)
	}
	return nil
}

// DropPassivated deletes the on-disk state of a session that is not
// live — the old owner's cleanup once a handoff is acknowledged, or the
// explicit DELETE of a passivated session. It reports whether anything
// was deleted; a live session is left alone.
func (s *Service) DropPassivated(id string) bool {
	if !s.durable() || !validSessionID(id) {
		return false
	}
	sess, held := s.liveOrHold(id)
	if sess != nil {
		return false
	}
	defer s.release(id, held)
	dir := s.sessionDir(id)
	if _, err := os.Stat(dir); err != nil {
		return false
	}
	_ = storage.RemoveDurable(dir)
	return true
}

// SetCrashHooks installs the crash-point injection hooks (test use
// only): appended runs once the fsync covering a batch's WAL record has
// returned, just before the batch is applied, applied right after it is
// applied, both on the session worker — the directory's only writer,
// parked while a hook runs. The returned restore puts the previous hooks
// back. Not safe to call while traffic is in flight.
func SetCrashHooks(appended, applied func(sessionID string)) (restore func()) {
	prevAppended, prevApplied := testHookAppended, testHookApplied
	testHookAppended, testHookApplied = appended, applied
	return func() { testHookAppended, testHookApplied = prevAppended, prevApplied }
}

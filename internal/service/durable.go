package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/wal"
)

// Durability. With Config.DataDir set, every session is durable: each
// mutating batch is appended to a per-session write-ahead log, and the
// log fsync'd, before the batch is applied (Session.commit: one fsync
// per group of queued batches). A session directory
//
//	<DataDir>/sessions/<id>/
//	    meta.json            process count, creation time
//	    wal.log              framed, CRC32C-checksummed records, one per batch
//
// survives kill -9. The WAL is the session: every record since its
// birth, cut only at a torn or damaged record, and the checker's state
// is a pure function of it. A load (Recover, or the first touch of a
// passivated session) reads the whole WAL back as the session's event
// log, replays every record through the exact apply path live ingestion
// uses, truncates any torn tail, and resumes the session with
// bit-identical verdicts — sealed, failed, and applied-count state
// included. Nothing derived is stored, so there is nothing to fall back
// from and nothing to quarantine but a session whose meta.json or WAL
// record kind this build cannot read.
//
// Failure is contained per session: a disk write error degrades only
// that session to read-only (HTTP 507 on further mutation) and is
// never made durable itself — the WAL remains the source of truth, so
// a restart recovers the session to its last committed batch, clean.

// ErrDegraded means the session's persistence failed; it is read-only
// until the daemon restarts and recovers it from disk.
var ErrDegraded = errors.New("session degraded: persistence failed")

const reasonDegraded = "degraded"

// StateDegraded is reported by sessions whose persistence failed.
const StateDegraded = "degraded"

// Test hooks for crash-point injection: when non-nil they run in
// Session.commit, on the worker. Logged runs once per group, after its
// records were appended and before the fsync, without the session lock;
// Appended and Applied run under it once per logged batch, just before
// and just after it is applied — so with the fsync behind them and the
// group's later records on disk unapplied. The durability tests copy the
// session directory inside them: the worker, the directory's only
// writer, is parked there, so the copy is a faithful image of kill -9 at
// that instant.
var (
	testHookLogged   func(sessionID string)
	testHookAppended func(sessionID string)
	testHookApplied  func(sessionID string)
)

// durableSession is the persistence side of a Session. Only the worker
// writes it; degraded and degradedErr change under the session mutex,
// which the queries reading them take.
type durableSession struct {
	dir         string
	wal         *wal.Log
	degraded    bool
	degradedErr error
}

func (d *durableSession) closeLocked() {
	if d.wal != nil {
		_ = d.wal.Close()
		d.wal = nil
	}
}

// sessionMeta is the per-session meta.json: everything needed to
// reconstruct the Session shell before state is loaded.
type sessionMeta struct {
	ID      string    `json:"id"`
	N       int       `json:"n"`
	Created time.Time `json:"created"`
}

func (s *Service) durable() bool               { return s.cfg.DataDir != "" }
func (s *Service) sessionsRoot() string        { return filepath.Join(s.cfg.DataDir, "sessions") }
func (s *Service) sessionDir(id string) string { return filepath.Join(s.sessionsRoot(), id) }

// attachDurable creates the on-disk identity of a fresh session: its
// directory (Mkdir, so a concurrent create of the same id loses), the
// meta file, and an empty WAL.
func (s *Service) attachDurable(sess *Session) error {
	dir := s.sessionDir(sess.ID)
	if err := os.Mkdir(dir, 0o755); err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("%w: %q", ErrSessionExists, sess.ID)
		}
		return fmt.Errorf("create session dir: %w", err)
	}
	if err := storage.SyncDir(s.sessionsRoot()); err != nil {
		return fmt.Errorf("create session dir: %w", err)
	}
	meta, err := json.Marshal(sessionMeta{ID: sess.ID, N: sess.N, Created: sess.created})
	if err != nil {
		return fmt.Errorf("encode session meta: %w", err)
	}
	if err := storage.WriteFileDurable(filepath.Join(dir, "meta.json"), meta); err != nil {
		return fmt.Errorf("write session meta: %w", err)
	}
	l, err := wal.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	sess.dur = &durableSession{dir: dir, wal: l}
	return nil
}

// degradeLocked poisons the session's persistence: it becomes
// read-only until a restart recovers it from its last committed batch.
func (s *Session) degradeLocked(err error) {
	d := s.dur
	if d.degraded {
		return
	}
	d.degraded = true
	d.degradedErr = err
	s.publishLocked()
	d.closeLocked()
	s.svc.mDegraded.Add(1)
	s.svc.degradedCount.Add(1)
}

// retire is the durable tail of the worker: on eviction it passivates
// the session — closes its WAL, which already holds every committed
// batch, so there is nothing to flush — or, for an explicit delete,
// removes its directory. Drain takes the same path.
func (s *Session) retire() {
	s.mu.Lock()
	if d := s.dur; d != nil {
		d.closeLocked()
		if s.dropDisk.Load() {
			_ = storage.RemoveDurable(d.dir)
		} else if d.degraded {
			// The session leaves memory, so it no longer counts as degraded —
			// a restart recovers it clean from its last committed state.
			s.svc.mDegraded.Add(-1)
			s.svc.degradedCount.Add(-1)
		}
	}
	s.mu.Unlock()
	s.svc.workerExited(s)
}

// RecoverStats summarizes a startup recovery scan.
type RecoverStats struct {
	// Sessions is the number of sessions brought back.
	Sessions int
	// Records and Events count what the WAL replay re-applied.
	Records int64
	Events  int64
	// Truncations counts torn or corrupt WAL tails cut off.
	Truncations int
	// QuarantinedSessions counts session directories renamed *.corrupt
	// because their meta.json was unreadable or their WAL holds a record
	// of a kind this build does not know.
	QuarantinedSessions int
}

// Recover scans the data directory and restores every session found
// there. Call it once, after New and before serving traffic. Recovery
// is conservative: a session that cannot be restored is quarantined
// (directory renamed *.corrupt), never silently dropped, and never
// stops the others from recovering.
func (s *Service) Recover() (RecoverStats, error) {
	var st RecoverStats
	if !s.durable() {
		return st, nil
	}
	root := s.sessionsRoot()
	entries, err := os.ReadDir(root)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return st, nil
		}
		return st, fmt.Errorf("recover: %w", err)
	}
	// Sweep import leftovers before loading. A crash mid-import can
	// leave a staged image ("#import#*": never installed, safe to drop)
	// or a displaced copy ("#old#<id>": the import renamed the local
	// copy aside but died before or after renaming its replacement in).
	// If the session directory exists the import won and the displaced
	// copy is covered state; if not, the displaced copy is the only
	// copy — restore it.
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || validSessionID(name) {
			continue
		}
		switch {
		case strings.HasPrefix(name, "#import#"):
			_ = os.RemoveAll(filepath.Join(root, name))
		case strings.HasPrefix(name, "#old#"):
			id := strings.TrimPrefix(name, "#old#")
			if !validSessionID(id) {
				continue
			}
			if _, err := os.Stat(filepath.Join(root, id)); errors.Is(err, os.ErrNotExist) {
				_ = os.Rename(filepath.Join(root, name), filepath.Join(root, id))
			} else {
				_ = os.RemoveAll(filepath.Join(root, name))
			}
		}
	}
	ids, err := s.SessionsOnDisk()
	if err != nil {
		return st, fmt.Errorf("recover: %w", err)
	}
	// Load on every core: a load is a WAL replay, CPU-bound and
	// independent per session directory.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards st
		next atomic.Int64
	)
	for w := min(runtime.GOMAXPROCS(0), len(ids)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ids)); i = next.Add(1) - 1 {
				id := ids[i]
				live, held := s.liveOrHold(id)
				if live != nil {
					continue // impossible before traffic is served
				}
				sess, ls, err := s.loadSession(id)
				mu.Lock()
				st.Truncations += ls.truncations
				if err != nil {
					// Unrecoverable (bad meta.json, a record of an unknown kind):
					// quarantine the whole directory so the bytes survive.
					_ = os.Rename(filepath.Join(root, id), filepath.Join(root, id+".corrupt"))
					st.QuarantinedSessions++
					s.release(id, held)
				} else {
					s.install(sess, held)
					st.Sessions++
					st.Records += ls.records
					st.Events += ls.events
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st, nil
}

type loadStats struct {
	records     int64
	events      int64
	truncations int
}

// scanDir is the one way a session directory is read: its WAL from the
// first byte, each record decoded and handed to replay, up to the first
// torn or undecodable one (a record that passes its CRC but does not
// decode is corruption the frame missed). It returns where the decodable
// WAL ends and whether bytes follow it; a record of an unknown kind fails
// the scan instead. A load is this scan with every record applied,
// stateOfDir the same scan with the records counted — so a peek reports,
// by construction, the state a load restores.
func scanDir(dir string, replay func(rec *record)) (end int64, torn bool, err error) {
	var good int64 // frame bytes of the decodable records
	bad := false
	end, torn, err = wal.ScanFrom(filepath.Join(dir, "wal.log"), 0, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			bad = !errors.Is(err, errUnknownKind)
			return fmt.Errorf("wal record: %w", err)
		}
		replay(&rec)
		good += int64(wal.HeaderSize + len(payload))
		return nil
	})
	if bad {
		return good, true, nil
	}
	return end, torn, err
}

// loadSession rebuilds one session from its directory (scanDir): every
// WAL record read back into the event log and replayed through the exact
// apply path live ingestion uses, then a torn tail truncated. The replay
// is silent: the checker's violation observer is attached only after it,
// so a violation is traced and counted once, when it was first applied
// live. The returned session is not yet installed or running.
func (s *Service) loadSession(id string) (*Session, loadStats, error) {
	var ls loadStats
	dir := s.sessionDir(id)
	metaRaw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, ls, fmt.Errorf("load %q: meta: %w", id, err)
	}
	var meta sessionMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, ls, fmt.Errorf("load %q: meta: %w", id, err)
	}
	if meta.N < 1 || meta.N > DefaultMaxProcs {
		return nil, ls, fmt.Errorf("load %q: meta: process count %d out of range", id, meta.N)
	}

	sess, err := newSession(s, id, meta.N)
	if err != nil {
		return nil, ls, fmt.Errorf("load %q: %w", id, err)
	}
	if !meta.Created.IsZero() {
		sess.created = meta.Created
	}

	start := time.Now()
	walPath := filepath.Join(dir, "wal.log")
	// The log holds each record behind a varint length no longer than the
	// WAL's frame header, so the file's size is room for all of it.
	if fi, err := os.Stat(walPath); err == nil {
		sess.log = make([]byte, 0, fi.Size())
	}
	// The session is unpublished, so no lock is needed; apply errors on
	// replay are deterministic re-poisonings, not replay failures.
	st := imageState{prodSeq: make(map[string]uint64)}
	end, torn, err := scanDir(dir, func(rec *record) {
		sess.log = binenc.AppendBytes(sess.log, rec.raw)
		sess.applyBatchLocked(rec)
		st.add(rec)
		ls.records++
	})
	s.mWALReplayRecords.Add(ls.records)
	if err != nil {
		return nil, ls, fmt.Errorf("load %q: %w", id, err)
	}
	sess.observe()
	if torn {
		if err := wal.Truncate(walPath, end); err != nil {
			return nil, ls, fmt.Errorf("load %q: %w", id, err)
		}
		ls.truncations++
		s.mWALTruncations.Inc()
	}
	s.hWALReplay.Observe(time.Since(start).Seconds())

	l, err := wal.OpenAppend(walPath)
	if err != nil {
		return nil, ls, fmt.Errorf("load %q: %w", id, err)
	}
	sess.dur = &durableSession{dir: dir, wal: l}
	// Seed the live dedup watermark from the records: a resuming producer
	// is told exactly where the durable record ends and replays from
	// there, no more and no less.
	sess.strmSeq = st.prodSeq
	ls.events = st.events
	return sess, ls, nil
}

// activate brings a passivated session back from disk on first touch.
func (s *Service) activate(id string) (*Session, error) {
	sess, held := s.liveOrHold(id)
	if sess != nil {
		return sess, nil
	}
	if s.draining.Load() {
		s.release(id, held)
		return nil, ErrDraining
	}
	if _, err := os.Stat(s.sessionDir(id)); err != nil {
		s.release(id, held)
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	sess, _, err := s.loadSession(id)
	if err != nil {
		s.release(id, held)
		return nil, fmt.Errorf("%w: %q: unrecoverable: %v", ErrNoSession, id, err)
	}
	s.install(sess, held)
	s.mReactivated.Inc()
	return sess, nil
}

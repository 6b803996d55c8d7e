package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/wal"
)

// Durability. With Config.DataDir set, every session is durable: each
// mutating batch is appended to a per-session write-ahead log, and the
// log fsync'd, before the batch is applied (Session.commit: one fsync
// per group of queued batches), and the checker's state is snapshotted
// every SnapshotEvery events. A session directory
//
//	<DataDir>/sessions/<id>/
//	    meta.json            process count, creation time
//	    wal.log              framed, CRC32C-checksummed batches
//	    snap_<seq>.bin       state snapshots (the last two are kept)
//
// survives kill -9: Recover scans the tree, reads each session's
// newest valid snapshot (a corrupt one is renamed *.corrupt and the
// previous one used, at the price of a longer replay), reads the whole
// WAL back as the session's event log, replays the records past the
// snapshot through the exact apply path live ingestion uses, truncates
// any torn tail, and resumes the session with bit-identical verdicts —
// sealed, failed, and applied-count state included. A snapshot holds only
// the checker: the WAL is the pattern, never truncated below a snapshot.
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
// Session.commit while the session lock is held. Logged runs once per
// group, after its records were appended and before the fsync; Appended
// and Applied run once per logged batch, just before and just after it
// is applied — so with the fsync behind them, the group's later records
// on disk unapplied, and any snapshot still to come. The durability
// tests copy the session directory inside them — a faithful image of
// kill -9 at that instant.
var (
	testHookLogged   func(sessionID string)
	testHookAppended func(sessionID string)
	testHookApplied  func(sessionID string)
)

// durableSession is the persistence side of a Session, guarded by the
// session mutex.
type durableSession struct {
	dir         string
	wal         *wal.Log
	snapSeq     uint64 // sequence number of the next snapshot
	snapOffset  int64  // WAL offset covered by the newest snapshot
	sinceSnap   int    // events appended since the newest snapshot
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
	sess.dur = &durableSession{dir: dir, wal: l, snapSeq: 1}
	return nil
}

// WAL record payloads: one batch per record.
const recBatch = 1

var opNames = map[byte]string{1: OpCheckpoint, 2: OpSend, 3: OpDeliver}

// encodeBatchRecord frames the mutating content of a batch, including
// the stream producer/seq watermark (empty/0 for HTTP batches) so
// replay restores the dedup state alongside the events it guards. The
// kind strings "" and "basic" are both KindBasic downstream, so one
// byte suffices and replay is still behaviorally identical.
func encodeBatchRecord(buf []byte, events []Event, seal bool, producer string, seq uint64) []byte {
	buf = append(buf, recBatch)
	buf = binenc.AppendBool(buf, seal)
	buf = binenc.AppendString(buf, producer)
	buf = binenc.AppendUvarint(buf, seq)
	buf = binenc.AppendInt(buf, len(events))
	for i := range events {
		ev := &events[i]
		var op byte // 0, which no reader accepts, for an op wellFormed would have cut
		switch ev.Op {
		case OpCheckpoint:
			op = 1
		case OpSend:
			op = 2
		case OpDeliver:
			op = 3
		}
		buf = append(buf, op)
		if ev.Kind == "forced" {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binenc.AppendInt(buf, ev.Proc)
		buf = binenc.AppendInt(buf, ev.Peer)
		buf = binenc.AppendInt(buf, ev.Msg)
	}
	return buf
}

func decodeBatchRecord(payload []byte) (events []Event, seal bool, producer string, seq uint64, err error) {
	r := binenc.NewReader(payload)
	if r.Byte() != recBatch {
		return nil, false, "", 0, fmt.Errorf("wal record: unknown kind")
	}
	seal = r.Bool()
	producer = r.String()
	seq = r.Uvarint()
	count := r.IntMax(wal.MaxRecord)
	if r.Err() == nil && count > 0 {
		events = make([]Event, count)
		for i := range events {
			ev := &events[i]
			op, known := opNames[r.Byte()]
			if r.Err() == nil && !known {
				return nil, false, "", 0, fmt.Errorf("wal record: unknown op byte")
			}
			ev.Op = op
			if r.Byte() == 1 {
				ev.Kind = "forced"
			}
			ev.Proc = r.Int()
			ev.Peer = r.Int()
			ev.Msg = r.Int()
		}
	}
	if err := r.Done(); err != nil {
		return nil, false, "", 0, fmt.Errorf("wal record: %w", err)
	}
	return events, seal, producer, seq, nil
}

// Snapshot files: a header (everything the session shell needs, and all
// that comparing two copies of a session needs) followed by the checker
// blob, with a trailing CRC32C so disk rot is detected even though the
// write itself was atomic. Revision 3 dropped the model.Builder blob; an
// older file fails the magic check and is quarantined like a corrupt one.
var snapMagic = []byte("RDTSNAP3")

func (s *Session) encodeSnapshotLocked() []byte {
	buf := append([]byte(nil), snapMagic...)
	buf = binenc.AppendUvarint(buf, uint64(s.dur.wal.Offset()))
	buf = binenc.AppendUvarint(buf, uint64(s.applied))
	buf = binenc.AppendBool(buf, s.sealed)
	if s.failErr != nil {
		buf = binenc.AppendBool(buf, true)
		buf = binenc.AppendString(buf, s.failErr.Error())
	} else {
		buf = binenc.AppendBool(buf, false)
	}
	ids := make([]int, 0, len(s.msgs))
	for id := range s.msgs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf = binenc.AppendInt(buf, len(ids))
	for _, id := range ids {
		buf = binenc.AppendInt(buf, id)
		buf = binenc.AppendInt(buf, s.msgs[id])
	}
	ids = ids[:0]
	for id := range s.usedMsg {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf = binenc.AppendInts(buf, ids)
	producers := make([]string, 0, len(s.prodSeq))
	for p := range s.prodSeq {
		producers = append(producers, p)
	}
	sort.Strings(producers)
	buf = binenc.AppendInt(buf, len(producers))
	for _, p := range producers {
		buf = binenc.AppendString(buf, p)
		buf = binenc.AppendUvarint(buf, s.prodSeq[p])
	}
	buf = binenc.AppendBytes(buf, s.inc.AppendBinary(nil))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
}

// snapHeader is a snapshot without its checker: what a Session's
// fields are restored from, and all stateOfDir reads.
type snapHeader struct {
	walOffset int64
	applied   int64
	sealed    bool
	failErr   error
	msgs      map[int]int
	usedMsg   map[int]bool
	prodSeq   map[string]uint64
}

// readSnapshotHeader reads a snapshot file, verifies its checksum and
// decodes everything before the checker blob, which it returns undecoded
// — rgraph.DecodeIncremental is the expensive part of a load.
func readSnapshotHeader(path string) (*snapHeader, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("snapshot: %w: too short", binenc.ErrCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != sum {
		return nil, nil, fmt.Errorf("snapshot: %w: checksum mismatch", binenc.ErrCorrupt)
	}
	r := binenc.NewReader(body)
	r.Expect(snapMagic)
	h := &snapHeader{
		walOffset: int64(r.Uvarint()),
		applied:   int64(r.Uvarint()),
		sealed:    r.Bool(),
		msgs:      make(map[int]int),
		usedMsg:   make(map[int]bool),
		prodSeq:   make(map[string]uint64),
	}
	if r.Bool() {
		h.failErr = errors.New(r.String())
	}
	msgCount := r.IntMax(wal.MaxRecord)
	for k := 0; k < msgCount && r.Err() == nil; k++ {
		id := r.Int()
		handle := r.Int()
		if _, dup := h.msgs[id]; dup {
			return nil, nil, fmt.Errorf("snapshot: duplicate in-flight message %d", id)
		}
		h.msgs[id] = handle
	}
	for _, id := range r.Ints(wal.MaxRecord) {
		h.usedMsg[id] = true
	}
	prodCount := r.IntMax(wal.MaxRecord)
	for k := 0; k < prodCount && r.Err() == nil; k++ {
		p := r.String()
		seq := r.Uvarint()
		if _, dup := h.prodSeq[p]; dup {
			return nil, nil, fmt.Errorf("snapshot: duplicate producer %q", p)
		}
		h.prodSeq[p] = seq
	}
	incBlob := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return h, incBlob, nil
}

func snapName(seq uint64) string { return fmt.Sprintf("snap_%016d.bin", seq) }

// snapSeqOf parses a snapshot file name; ok is false for anything else
// (including quarantined *.corrupt files).
func snapSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap_") || !strings.HasSuffix(name, ".bin") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap_"), ".bin"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// noteProducerLocked advances the persisted stream-dedup watermark.
func (s *Session) noteProducerLocked(producer string, seq uint64) {
	if seq == 0 {
		return
	}
	if s.prodSeq == nil {
		s.prodSeq = make(map[string]uint64)
	}
	if seq > s.prodSeq[producer] {
		s.prodSeq[producer] = seq
	}
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

// maybeSnapshotLocked writes a snapshot when the cadence is due or the
// session just sealed (a sealed session's state is final — snapshotting
// now makes its restart replay-free).
func (s *Session) maybeSnapshotLocked(sealedNow bool) {
	d := s.dur
	if d.degraded || d.wal == nil {
		return
	}
	if !sealedNow && d.sinceSnap < s.svc.cfg.SnapshotEvery {
		return
	}
	if err := s.snapshotLocked(); err != nil {
		s.degradeLocked(err)
	}
}

// snapshotLocked writes the current state as the next snapshot file
// and prunes all but the newest two.
func (s *Session) snapshotLocked() error {
	d := s.dur
	data := s.encodeSnapshotLocked()
	if err := storage.WriteFileDurable(filepath.Join(d.dir, snapName(d.snapSeq)), data); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	d.snapOffset = d.wal.Offset()
	d.snapSeq++
	d.sinceSnap = 0
	s.svc.mSnapshots.Inc()
	s.pruneSnapshotsLocked()
	return nil
}

// pruneSnapshotsLocked removes snapshots older than the newest two.
// Failures are ignored: stale files cost disk, not correctness, and
// the next prune retries.
func (s *Session) pruneSnapshotsLocked() {
	seqs, err := snapSeqs(s.dur.dir)
	if err != nil || len(seqs) <= 2 {
		return
	}
	for _, seq := range seqs[2:] {
		_ = os.Remove(filepath.Join(s.dur.dir, snapName(seq)))
	}
}

// retire is the durable tail of the worker: on eviction it passivates
// the session (final snapshot, so a reactivation or restart replays
// zero records) or — for an explicit delete — removes its directory.
// Drain takes the same path, which is what makes SIGTERM→restart
// replay-free.
func (s *Session) retire() {
	s.mu.Lock()
	if d := s.dur; d != nil {
		switch {
		case s.dropDisk.Load():
			d.closeLocked()
			_ = storage.RemoveDurable(d.dir)
		case d.degraded:
			// Nothing to flush: the WAL already holds the last committed
			// batch, and writing more would use the failing medium. The
			// session leaves memory, so it no longer counts as degraded —
			// a restart recovers it clean from its last committed state.
			s.svc.mDegraded.Add(-1)
			s.svc.degradedCount.Add(-1)
		default:
			if d.wal.Offset() != d.snapOffset || d.snapSeq == 1 {
				if err := s.snapshotLocked(); err != nil {
					s.degradeLocked(err)
				}
			}
			d.closeLocked()
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
	// QuarantinedSnapshots counts snapshot files renamed *.corrupt.
	QuarantinedSnapshots int
	// QuarantinedSessions counts session directories renamed *.corrupt
	// because their meta.json was unreadable.
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
	// Load on every core: a load is a snapshot decode plus a WAL replay,
	// CPU-bound and independent per session directory.
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
				st.QuarantinedSnapshots += ls.quarantinedSnaps
				if err != nil {
					// Unrecoverable shell (bad meta.json): quarantine the whole
					// directory so the bytes survive for forensics.
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
	records          int64
	events           int64
	truncations      int
	quarantinedSnaps int
}

// walHead scans a WAL from offset 0 to the first record boundary at or
// past walOff — or as far as it reads — and returns that offset, handing
// fn the payload of every record that starts below it. A result
// equal to walOff says walOff is a record boundary, a larger one that it
// lies inside a record, a smaller one that the WAL is damaged below it.
func walHead(walPath string, walOff int64, fn func(payload []byte)) (off int64) {
	_, _, _ = wal.ScanFrom(walPath, 0, func(payload []byte) error {
		if off >= walOff {
			return errors.New("far enough")
		}
		off += int64(wal.HeaderSize + len(payload))
		fn(payload)
		return nil
	})
	return off
}

// snapSeqs lists a session directory's snapshot sequence numbers,
// newest first.
func snapSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := snapSeqOf(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// errLogDamaged is what a session's pattern queries report when its WAL
// does not read back as far as the snapshot it was restored from.
var errLogDamaged = errors.New("pattern unavailable: the session's WAL is damaged below its snapshot")

// dirScan is what scanDir found in a session directory.
type dirScan struct {
	snap    *snapHeader         // newest usable snapshot; nil: none
	from    int64               // the WAL offset it covers: where the tail starts
	inc     *rgraph.Incremental // its checker and
	head    []byte              // the log below it: both on a full scan only
	damaged bool                // the WAL does not read back as far as snap: no head
	passed  []string            // the unusable snapshot files passed over, newest first
	nextSeq uint64              // sequence number of the next snapshot file
	end     int64               // where the decodable WAL ends
	torn    bool                // bytes follow end: a torn, corrupt or undecodable tail
}

// scanDir is the one way a session directory is read: the newest usable
// snapshot's header — unusable means undecodable, of another revision, or
// claiming a WAL offset inside a record; the scan falls back to the
// previous one (a longer tail, not data loss) — then restore if there is
// one, then the WAL tail past it, each record decoded and handed to replay up to the first
// torn or undecodable one (one that passes its CRC but does not decode is
// corruption the frame missed). n > 0 asks for a full scan, a load's: the
// checker behind the header is decoded too, must be over n processes for
// the snapshot to be usable, and the log below it is kept. n == 0 is the
// peek stateOfDir compares copies with — by construction the prefix of a
// load that decides which state the copy restores.
func scanDir(dir string, n int, restore func(*dirScan), replay func(payload []byte, events []Event, seal bool, producer string, seq uint64)) (*dirScan, error) {
	seqs, err := snapSeqs(dir)
	if err != nil {
		return nil, err
	}
	sc := &dirScan{nextSeq: 1}
	if len(seqs) > 0 {
		sc.nextSeq = seqs[0] + 1
	}
	walPath := filepath.Join(dir, "wal.log")
	for _, seq := range seqs {
		path := filepath.Join(dir, snapName(seq))
		h, incBlob, err := readSnapshotHeader(path)
		var head []byte
		var reach int64
		if err == nil {
			reach = walHead(walPath, h.walOffset, func(payload []byte) {
				if n > 0 {
					head = binenc.AppendBytes(head, payload)
				}
			})
			if reach > h.walOffset {
				err = fmt.Errorf("snapshot: WAL offset %d is inside a record", h.walOffset)
			}
		}
		var inc *rgraph.Incremental
		if err == nil && n > 0 {
			if inc, err = rgraph.DecodeIncremental(incBlob); err == nil && inc.N() != n {
				err = fmt.Errorf("snapshot: checker over %d processes, want %d", inc.N(), n)
			}
		}
		if err != nil {
			sc.passed = append(sc.passed, path)
			continue
		}
		sc.snap, sc.from, sc.inc, sc.head, sc.damaged = h, h.walOffset, inc, head, reach < h.walOffset
		restore(sc)
		break
	}
	var good int64 // frame bytes of the decodable records
	bad := false
	sc.end, sc.torn, err = wal.ScanFrom(walPath, sc.from, func(payload []byte) error {
		events, seal, producer, seq, err := decodeBatchRecord(payload)
		if err != nil {
			bad = true
			return err
		}
		replay(payload, events, seal, producer, seq)
		good += int64(wal.HeaderSize + len(payload))
		return nil
	})
	if bad {
		sc.end, sc.torn, err = sc.from+good, true, nil
	}
	return sc, err
}

// loadSession rebuilds one session from its directory (scanDir): newest
// usable snapshot, the unusable ones quarantined, with the WAL below it
// read back as the event log, then the WAL tail replayed through the exact
// apply path live ingestion uses, then a torn tail truncated. The returned
// session is not yet installed or running.
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
	if meta.N < 1 || meta.N > s.cfg.MaxProcs {
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
	// The session is unpublished, so no lock is needed; apply errors on
	// replay are deterministic re-poisonings, not replay failures.
	sc, err := scanDir(dir, meta.N, func(sc *dirScan) {
		h := sc.snap
		sess.inc = sc.inc
		sess.msgs = h.msgs
		sess.usedMsg = h.usedMsg
		sess.prodSeq = h.prodSeq
		sess.applied = h.applied
		sess.sealed = h.sealed
		sess.failErr = h.failErr
		sess.publishLocked()
		s.observeInc(sess.inc)
		if sess.log = sc.head; sc.damaged {
			// The snapshot passed its checksum, so the damage is in the WAL
			// below it: that costs the pattern. The checker and the tail
			// are read as always and no byte below the snapshot is touched.
			sess.log, sess.logErr = nil, errLogDamaged
		}
	}, func(payload []byte, events []Event, seal bool, producer string, seq uint64) {
		sess.log = binenc.AppendBytes(sess.log, payload)
		sess.applyBatchLocked(events, seal)
		sess.noteProducerLocked(producer, seq)
		ls.records++
		ls.events += int64(len(events))
		s.mWALReplayRecords.Inc()
	})
	if err != nil {
		return nil, ls, fmt.Errorf("load %q: %w", id, err)
	}
	for _, path := range sc.passed {
		_ = os.Rename(path, path+".corrupt")
		ls.quarantinedSnaps++
		s.mSnapQuarantined.Inc()
	}
	walPath := filepath.Join(dir, "wal.log")
	if sc.torn {
		if err := wal.Truncate(walPath, sc.end); err != nil {
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
	sess.dur = &durableSession{
		dir:        dir,
		wal:        l,
		snapSeq:    sc.nextSeq,
		snapOffset: sc.from,
		sinceSnap:  int(ls.events),
	}
	// Reseed the live dedup watermark from the persisted one: a
	// resuming producer is told exactly where the durable record ends
	// and replays from there, no more and no less.
	sess.strmSeq = maps.Clone(sess.prodSeq)
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

package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/vtime"
)

// Limits every Service runs with; only MaxCheckpoints is settable, and
// DefaultMaxCheckpoints is its zero-Config default.
const (
	// DefaultQueueDepth bounds each session's ingestion queue, in
	// batches; a full queue is backpressure.
	DefaultQueueDepth = 256
	// DefaultMaxBatch bounds the events per ingest request or EVENTS
	// frame.
	DefaultMaxBatch = 512
	// DefaultMaxBody bounds the ingest request body, in bytes.
	DefaultMaxBody        = 1 << 20
	DefaultMaxCheckpoints = 1 << 16
	// DefaultMaxViolations is the number of violations a verdict lists
	// unless the caller asks for another.
	DefaultMaxViolations = 16
	// MaxViolations is the most violations a verdict or explanation may
	// be asked to list (?violations=); each listed pair of an
	// explanation costs one witness search under the session's lock.
	MaxViolations = 1024
	// DefaultMaxProcs bounds the process count of a session.
	DefaultMaxProcs = 1024
	// DefaultSweepInterval is how often the janitor looks for idle
	// sessions.
	DefaultSweepInterval = 30 * time.Second
)

// Config tunes a Service. The zero value is usable: MaxCheckpoints falls
// back to its default and idle eviction is off.
type Config struct {
	// MaxCheckpoints bounds the closed checkpoints per session; beyond
	// it, checkpoint events fail and the client must seal.
	MaxCheckpoints int
	// IdleTimeout evicts sessions untouched for this long; 0 disables
	// idle eviction. With DataDir set, idle eviction is passivation: the
	// session's state stays on disk and the next touch reactivates it.
	IdleTimeout time.Duration
	// DataDir enables durability: every session keeps a write-ahead log
	// under DataDir/sessions/<id>/ and survives restarts (call Recover
	// after New). Empty means in-memory only, with behavior identical to
	// previous releases.
	DataDir string
	// Registry and Tracer receive the service's metrics and violation
	// events; either may be nil.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	// Clock drives the janitor's sweeps and the idle cut, plus
	// session created/last-active stamps. Nil means the real clock;
	// tests pass a vtime.Virtual to make idle eviction deterministic.
	Clock vtime.Clock
}

// Rejection reasons for the rdt_service_events_rejected_total counter.
const (
	reasonBackpressure = "backpressure"
	reasonInvalid      = "invalid"
	reasonSealed       = "sealed"
	reasonFailed       = "failed"
)

// Service errors the HTTP layer maps to status codes.
var (
	// ErrDraining means the service is shutting down.
	ErrDraining = errors.New("service is draining")
	// ErrSessionExists means the requested session id is taken.
	ErrSessionExists = errors.New("session already exists")
	// ErrNoSession means the session id is unknown.
	ErrNoSession = errors.New("no such session")
)

// MovedError reports that a session belongs to another cluster member.
// The shard gate (see SetGate) returns it for sessions this daemon does
// not own; the HTTP layer answers 307 and the stream layer a MOVED
// error frame, both pointing at the owner's addresses.
type MovedError struct {
	// Owner is the owning member's name; HTTP and Stream are its
	// advertised addresses (Stream may be empty).
	Owner  string
	HTTP   string
	Stream string
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("session moved to member %q (http %s)", e.Owner, e.HTTP)
}

// gateFuncs is the installed shard hook pair (see SetGate).
type gateFuncs struct {
	check func(id string) error
	info  func() any
}

// Service is the multi-session checker: one lifecycle table of session
// ids, one worker goroutine per live session, and a janitor evicting
// idle sessions.
type Service struct {
	cfg   Config
	clock vtime.Clock

	// slots says where every session id this process knows of is. An id
	// with no slot is absent: only the data directory knows of it.
	mu    sync.RWMutex
	slots map[string]slot

	workers   sync.WaitGroup
	janitor   *vtime.Loop // idle sweeps; nil without an idle timeout
	draining  atomic.Bool
	unlockOne sync.Once

	// unlock releases the data-dir lock (durable services only).
	unlock func()

	// gate holds the cluster ownership hook; nil outside shard mode.
	gate atomic.Pointer[gateFuncs]

	degradedCount atomic.Int64

	mSessions     *obs.Gauge
	mCreated      *obs.Counter
	mIngested     *obs.Counter
	mViolations   *obs.Counter
	mBackpressure *obs.Counter

	// The commit stages of Session.commit: appends counts records, syncs
	// fsyncs, group the records one fsync covered, and append_seconds
	// times a group's log + sync stage (appends and the one fsync).
	mWALAppends       *obs.Counter
	mWALAppendBytes   *obs.Counter
	mWALSyncs         *obs.Counter
	hWALGroup         *obs.Histogram
	hWALAppend        *obs.Histogram
	mWALReplayRecords *obs.Counter
	hWALReplay        *obs.Histogram
	mWALTruncations   *obs.Counter
	mDegraded         *obs.Gauge
	mPassivated       *obs.Counter
	mReactivated      *obs.Counter
}

// slot is one id's lifecycle state (DESIGN.md §8). Live: sess is set.
// Held: one goroutine owns the id's disk↔memory transition — create,
// load, export, import, drop — and closes busy when it is done.
// Retiring: a durable session was evicted and busy is its workerDone,
// closed once its WAL is closed or its directory is gone. A
// closed busy means free: whoever finds one may take the slot.
type slot struct {
	sess *Session
	busy chan struct{}
}

// New starts a service. Call Drain to stop it, and — when DataDir is
// set — Recover right after New to restore persisted sessions. A
// durable service locks its data directory exclusively: a second
// daemon pointed at the same root fails here instead of corrupting
// WALs.
func New(cfg Config) (*Service, error) {
	if cfg.MaxCheckpoints <= 0 {
		cfg.MaxCheckpoints = DefaultMaxCheckpoints
	}
	s := &Service{
		cfg:           cfg,
		clock:         vtime.Or(cfg.Clock),
		slots:         make(map[string]slot),
		mSessions:     cfg.Registry.Gauge("rdt_service_sessions"),
		mCreated:      cfg.Registry.Counter("rdt_service_sessions_created_total"),
		mIngested:     cfg.Registry.Counter("rdt_service_events_ingested_total"),
		mViolations:   cfg.Registry.Counter("rdt_service_violations_total"),
		mBackpressure: cfg.Registry.Counter("rdt_service_backpressure_total"),

		mWALAppends:       cfg.Registry.Counter("rdt_wal_appends_total"),
		mWALAppendBytes:   cfg.Registry.Counter("rdt_wal_append_bytes_total"),
		mWALSyncs:         cfg.Registry.Counter("rdt_wal_syncs_total"),
		hWALGroup:         cfg.Registry.Histogram("rdt_wal_group_batches", obs.DepthBuckets),
		hWALAppend:        cfg.Registry.Histogram("rdt_wal_append_seconds", obs.LatencyBuckets),
		mWALReplayRecords: cfg.Registry.Counter("rdt_wal_replay_records_total"),
		hWALReplay:        cfg.Registry.Histogram("rdt_wal_replay_seconds", obs.LatencyBuckets),
		mWALTruncations:   cfg.Registry.Counter("rdt_wal_truncations_total"),
		mDegraded:         cfg.Registry.Gauge("rdt_service_degraded_sessions"),
		mPassivated:       cfg.Registry.Counter("rdt_service_sessions_passivated_total"),
		mReactivated:      cfg.Registry.Counter("rdt_service_sessions_reactivated_total"),
	}
	if s.durable() {
		if err := os.MkdirAll(s.sessionsRoot(), 0o755); err != nil {
			return nil, fmt.Errorf("create sessions root: %w", err)
		}
		unlock, err := lockDataDir(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.unlock = unlock
	}
	if cfg.IdleTimeout > 0 {
		s.janitor = vtime.Repeat(s.clock, DefaultSweepInterval, func() time.Duration {
			s.sweep()
			return DefaultSweepInterval
		})
	}
	return s, nil
}

// SetGate installs the cluster ownership hook: check runs on every
// session lookup/create with the session id and returns nil when this
// daemon serves it, a *MovedError when another member owns it, or any
// other error to fail the request. It may block (the shard layer pulls
// a moved-in session's state inside it). info, when non-nil, is
// embedded in /healthz as the "shard" field. Install before serving
// traffic; outside shard mode no gate exists and every id is local.
func (s *Service) SetGate(check func(id string) error, info func() any) {
	s.gate.Store(&gateFuncs{check: check, info: info})
}

// CheckGate runs the installed ownership gate for id; nil without one.
func (s *Service) CheckGate(id string) error {
	if g := s.gate.Load(); g != nil && g.check != nil {
		return g.check(id)
	}
	return nil
}

// ShardInfo returns the shard layer's /healthz view (nil outside shard
// mode).
func (s *Service) ShardInfo() any {
	if g := s.gate.Load(); g != nil && g.info != nil {
		return g.info()
	}
	return nil
}

// DegradedCount returns the number of sessions whose persistence
// failed since startup (living or evicted); /healthz surfaces it.
func (s *Service) DegradedCount() int64 { return s.degradedCount.Load() }

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

func (s *Service) reject(reason string, n int) {
	s.cfg.Registry.Counter("rdt_service_events_rejected_total", "reason", reason).Add(int64(n))
}

// validSessionID accepts ids safe to embed in URL paths and file
// names. "." and ".." would escape the session tree as directory
// names, and a ".corrupt" suffix is reserved for quarantined state.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	if id == "." || id == ".." || strings.HasSuffix(id, ".corrupt") {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// idSeq disambiguates fallback ids minted in the same instant — a
// wall-clock id alone collides under rapid creation (and always under
// a frozen virtual clock). idNonce keeps fallback ids from different
// processes apart.
var (
	idSeq   atomic.Uint64
	idNonce = uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())&0xffffffff
)

func randomID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// The entropy pool failing is unheard of; fall back to a
		// counter-based id rather than refusing service.
		return fallbackID()
	}
	return hex.EncodeToString(buf[:])
}

// fallbackID mints a session id without entropy: unique within the
// process by the counter, distinct across processes by the nonce.
func fallbackID() string {
	return fmt.Sprintf("s-%x-%d", idNonce, idSeq.Add(1))
}

// CreateSession registers a session of n processes. An empty id asks
// the service to generate one.
func (s *Service) CreateSession(id string, n int) (*Session, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if n < 1 || n > DefaultMaxProcs {
		return nil, fmt.Errorf("process count %d out of range [1,%d]", n, DefaultMaxProcs)
	}
	if id == "" {
		id = randomID()
		// In shard mode a minted id must land on this member, or the
		// client would be redirected to a session it never asked for.
		for tries := 0; s.CheckGate(id) != nil && tries < 128; tries++ {
			id = randomID()
		}
	} else if !validSessionID(id) {
		return nil, fmt.Errorf("invalid session id %q: want 1-64 characters of [a-zA-Z0-9._-]", id)
	}
	if err := s.CheckGate(id); err != nil {
		return nil, err
	}
	sess, err := newSession(s, id, n)
	if err != nil {
		return nil, err
	}
	sess.observe()
	// A session's birth is a disk↔memory transition like any other: the id
	// is held across it, or a shard export could read (and ship) the
	// half-born directory while the create goes on to win locally.
	live, held := s.liveOrHold(id)
	if live != nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	if s.durable() {
		// The Mkdir inside doubles as the existence check: a passivated
		// session owns its directory while its id is absent from the table.
		if err := s.attachDurable(sess); err != nil {
			s.release(id, held)
			return nil, err
		}
	}
	s.install(sess, held)
	s.mCreated.Inc()
	if s.durable() {
		// The ring can reassign the id between the gate check at entry
		// and the install above — and by now the new epoch's rebalance
		// walk may already have run and seen nothing to move. Re-check:
		// if the id lives elsewhere now, passivate the newborn where the
		// owner's pull walk will find it, and redirect the client.
		if err := s.CheckGate(id); err != nil {
			s.Passivate(id, "moved")
			return nil, err
		}
	}
	return sess, nil
}

// liveOrHold is the gate every transition of an id goes through. It
// returns the id's live session, or — having waited out whoever held the
// id and any retirement in flight (its worker must be done with the WAL
// before the directory is touched) — the id held for the caller, who
// alone may then touch its directory and must end the hold with install
// (the id goes live) or release (it goes back to absent).
func (s *Service) liveOrHold(id string) (live *Session, held chan struct{}) {
	for {
		s.mu.Lock()
		sl := s.slots[id]
		// Every closer of a busy takes its slot out first, so a closed one
		// should not be found; if one is, it is free, not a wait that spins.
		if sl.sess == nil && (sl.busy == nil || isClosed(sl.busy)) {
			held = make(chan struct{})
			s.slots[id] = slot{busy: held}
		}
		s.mu.Unlock()
		if sl.sess != nil || held != nil {
			return sl.sess, held
		}
		<-sl.busy
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// release ends a hold with the id absent again.
func (s *Service) release(id string, held chan struct{}) {
	s.mu.Lock()
	delete(s.slots, id)
	s.mu.Unlock()
	close(held)
}

// install ends a hold with the id live as sess, and starts its worker.
func (s *Service) install(sess *Session, held chan struct{}) {
	s.workers.Add(1)
	s.mu.Lock()
	s.slots[sess.ID] = slot{sess: sess}
	s.mu.Unlock()
	close(held)
	go sess.run()
	s.mSessions.Add(1)
}

// workerExited is the last act of a session's worker: if the session was
// retiring, its id is absent from here on. workerDone closes under the
// table lock, so Evict sees a worker either still to come by here or gone.
func (s *Service) workerExited(sess *Session) {
	s.mu.Lock()
	if s.slots[sess.ID].busy == sess.workerDone {
		delete(s.slots, sess.ID)
	}
	close(sess.workerDone)
	s.mu.Unlock()
}

// live returns the id's live session, nil when it has none.
func (s *Service) live(id string) *Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slots[id].sess
}

// Session looks a session up by id; on a durable service a passivated
// session is transparently reactivated from disk. In shard mode the
// ownership gate runs first: a session owned elsewhere fails with
// *MovedError even if a stale local copy exists, and a session owned
// here may be pulled from its previous owner before the lookup
// proceeds.
func (s *Service) Session(id string) (*Session, error) {
	if err := s.CheckGate(id); err != nil {
		return nil, err
	}
	if sess := s.live(id); sess != nil {
		return sess, nil
	}
	if s.durable() && validSessionID(id) {
		return s.activate(id)
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
}

// Evict removes a session, stopping its ingestion; batches already
// accepted are still applied before the worker exits. The reason labels
// the eviction counter ("explicit", "idle").
//
// On a durable service the reason decides the disk's fate: "explicit"
// deletes the session's directory (including that of a passivated
// session no longer in memory), anything else passivates — the worker
// applies what was accepted, closes the WAL, and the state waits on disk
// for the next touch.
func (s *Service) Evict(id, reason string) bool {
	drop := reason == "explicit" // of a durable session: its directory goes too
	s.mu.Lock()
	sess := s.slots[id].sess
	if sess == nil {
		s.mu.Unlock()
		return drop && s.DropPassivated(id)
	}
	gone := isClosed(sess.workerDone) // Drain ran its worker out
	if sess.dur != nil && !gone {
		s.slots[id] = slot{busy: sess.workerDone} // retiring
	} else {
		delete(s.slots, id)
	}
	s.mu.Unlock()
	if sess.dur != nil {
		if drop {
			sess.dropDisk.Store(true)
		} else {
			s.mPassivated.Inc()
		}
	}
	sess.closeQueue()
	if gone && drop {
		s.DropPassivated(id) // no worker is left to do it
	}
	s.mSessions.Add(-1)
	s.cfg.Registry.Counter("rdt_service_sessions_evicted_total", "reason", reason).Inc()
	return true
}

// liveSessions lists every live session, in no order.
func (s *Service) liveSessions() []*Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	all := make([]*Session, 0, len(s.slots))
	for _, sl := range s.slots {
		if sl.sess != nil {
			all = append(all, sl.sess)
		}
	}
	return all
}

// Sessions lists every live session, sorted by id.
func (s *Service) Sessions() []Info {
	all := s.liveSessions()
	out := make([]Info, 0, len(all))
	for _, sess := range all {
		out = append(out, sess.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionCount returns the number of live sessions.
func (s *Service) SessionCount() int { return len(s.liveSessions()) }

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// sweep evicts every session untouched for longer than the idle
// timeout.
func (s *Service) sweep() {
	cut := s.clock.Now().Add(-s.cfg.IdleTimeout).UnixNano()
	for _, sess := range s.liveSessions() {
		if sess.lastActive.Load() < cut {
			s.Evict(sess.ID, "idle")
		}
	}
}

// Drain stops the service gracefully: no new sessions or events are
// accepted, every queue is closed, and Drain waits — up to the context
// deadline — for the workers to apply what was already acknowledged.
// Sessions remain queryable afterwards. Idempotent.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.janitor != nil {
		s.janitor.Stop()
	}
	for _, sess := range s.liveSessions() {
		sess.closeQueue()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.unlockOne.Do(func() {
			if s.unlock != nil {
				s.unlock()
			}
		})
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

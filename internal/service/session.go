package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/obs"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/rgraph"
)

// Sentinel errors of the session state machine; the HTTP layer maps
// them to status codes (429, 409, 410).
var (
	// ErrBackpressure means the session's ingestion queue is full; the
	// client should retry after a moment.
	ErrBackpressure = errors.New("session queue full")
	// ErrSealed means the session no longer accepts events.
	ErrSealed = errors.New("session is sealed")
	// ErrFailed wraps the apply error that poisoned the session.
	ErrFailed = errors.New("session failed")
	// ErrClosed means the session was evicted or the service drained.
	ErrClosed = errors.New("session closed")
)

// batch is one unit of work on a session queue: its record, encoded and
// checked once at admission — events to apply, a seal request, or with
// the zero record a pure barrier — which the worker logs as it is and
// applies. When notify is non-nil the worker invokes it after processing,
// with the outcome: the stream layer emits acks in it, and Flush and
// Seal (await) send on a buffered channel. notify must not block.
type batch struct {
	record
	notify func(error)
	gate   chan struct{} // test hook: the worker parks here before processing
}

// Session is one tenant's live RDT analysis: an rgraph.Incremental (the
// verdict) and an append-only log of the batches it was fed (the
// pattern, materialized on demand by patternLocked). All mutation flows
// through the queue and is applied by the single worker goroutine;
// queries take the mutex directly.
type Session struct {
	// ID is the session identifier (immutable).
	ID string
	// N is the process count (immutable).
	N int

	svc     *Service
	queue   chan batch
	created time.Time

	// workerDone closes when the worker has exited — for a durable
	// session, after its WAL was closed (or its directory removed), so
	// reactivation can safely wait on it.
	workerDone chan struct{}

	lastActive atomic.Int64 // unix nanoseconds of the last API touch
	dropDisk   atomic.Bool  // explicit delete: the worker removes the directory

	// Admission state, apart from mu: enqueue must never wait behind an
	// apply, nor a stream connection's one read loop behind one session's
	// worker. qmu guards closed, the queue's send/close and strmSeq; adm
	// is the worker's last published view of sealed/failErr/degraded
	// (nil: none of them).
	qmu    sync.Mutex
	closed bool // queue closed; no further enqueues
	adm    atomic.Pointer[admission]
	// strmSeq is the stream-ingest dedup state: the highest frame sequence
	// accepted per producer. Under qmu the check-and-enqueue of EnqueueSeq
	// is atomic across concurrent connections. A load reseeds it from the
	// WAL's records, which carry each frame's producer and sequence, so a
	// reconnecting producer resumes its numbering across passivation,
	// restart, and handoff.
	strmSeq map[string]uint64

	// mu guards what follows against the queries. The worker is its only
	// writer and takes it for apply alone, so it reads these fields
	// without the lock, and no query waits on a WAL append or fsync.
	mu      sync.Mutex
	failErr error // first apply error; poisons further ingestion
	dur     *durableSession
	inc     *rgraph.Incremental
	// msgs maps every client message id ever sent to its checker handle
	// while it is in flight, and to delivered once it is not: an id is
	// never reused, delivered ones included.
	msgs    map[int]int
	applied int64          // events applied
	viol    violationStage // the current group's violations; the worker's alone
	// log is every mutating batch in arrival order, each one its record
	// — the WAL record payload — behind a length prefix: the pattern's
	// only stored form. Its first `applied` events are exactly the events
	// the checker accepted. A record joins it at apply, after its fsync,
	// so on a durable session it is always a prefix of the synced WAL.
	log []byte
}

// admission is what enqueue needs to know of the state mu guards.
type admission struct {
	sealed      bool
	failErr     error
	degradedErr error
}

// publishLocked refreshes the admission view; call it wherever the
// checker seals, failErr or the degraded flag change.
func (s *Session) publishLocked() {
	a := &admission{sealed: s.inc.Sealed(), failErr: s.failErr}
	if s.dur != nil && s.dur.degraded {
		a.degradedErr = s.dur.degradedErr
	}
	s.adm.Store(a)
}

func newSession(svc *Service, id string, n int) (*Session, error) {
	inc, err := rgraph.NewIncremental(n)
	if err != nil {
		return nil, err
	}
	s := &Session{
		ID:         id,
		N:          n,
		svc:        svc,
		queue:      make(chan batch, DefaultQueueDepth),
		workerDone: make(chan struct{}),
		created:    svc.clock.Now(),
		inc:        inc,
		msgs:       make(map[int]int),
	}
	s.touch()
	return s, nil
}

// violationStage holds what a commit group's applies found: n untrackable
// R-paths, the last min(n, capacity) of them in buf, violation i at
// index i%capacity — capacity being the tracer's, since its ring keeps
// no more. buf is box's array, taken from stageBufs at the group's first
// violation and put back when the group is reported: only a committing
// worker holds one.
type violationStage struct {
	n   int
	buf []rgraph.Violation
	box *[]rgraph.Violation
}

// stageBufs starts a buffer at what a 128-event batch of unprotected
// traffic (~5 violations per event) stages, so it rarely grows.
var stageBufs = sync.Pool{New: func() any {
	buf := make([]rgraph.Violation, 0, 1024)
	return &buf
}}

// observe routes the checker's violations into the service's metrics and
// tracer: it stages each one, and reportViolations publishes a group's
// at once. CreateSession attaches it at birth, loadSession only after
// the replay, so a violation is reported once, when it is first applied.
func (s *Session) observe() {
	capacity := s.svc.cfg.Tracer.Cap()
	s.inc.OnViolation(func(v rgraph.Violation) {
		st := &s.viol
		if st.n < capacity {
			if st.box == nil {
				st.box = stageBufs.Get().(*[]rgraph.Violation)
				st.buf = *st.box
			}
			st.buf = append(st.buf, v)
		} else if capacity > 0 {
			st.buf[st.n%capacity] = v
		}
		st.n++
	})
}

// reportViolations publishes what the group's applies staged: one Add to
// rdt_service_violations_total and one RecordN into the tracer, which
// stores each violation as fields and formats it only when it is read.
func (s *Session) reportViolations() {
	st := &s.viol
	if st.n == 0 {
		return
	}
	s.svc.mViolations.Add(int64(st.n))
	if st.box != nil {
		buf := st.buf
		s.svc.cfg.Tracer.RecordN(st.n, func(i int, slots []obs.Event) {
			i %= len(buf)
			for k := range slots {
				v, slot := &buf[i], &slots[k]
				// Field by field: a composite literal is built on the stack
				// and copied in with write barriers, which cost more.
				slot.Type = obs.EventViolation
				slot.Proc, slot.Value = int(v.From.Proc), v.From.Index
				slot.Peer, slot.Target = int(v.To.Proc), v.To.Index
				slot.Predicate, slot.Detail = "", ""
				slot.Format = formatViolation
				if i++; i == len(buf) {
					i = 0
				}
			}
		})
		*st.box = buf[:0]
		stageBufs.Put(st.box)
	}
	*st = violationStage{}
}

// formatViolation renders a violation event's Detail: Violation.String of
// the pair its fields name.
func formatViolation(ev obs.Event) string {
	return rgraph.Violation{
		From: model.CkptID{Proc: model.ProcID(ev.Proc), Index: ev.Value},
		To:   model.CkptID{Proc: model.ProcID(ev.Peer), Index: ev.Target},
	}.String()
}

// touch refreshes the idle-eviction clock.
func (s *Session) touch() { s.lastActive.Store(s.svc.clock.Now().UnixNano()) }

// queued is one batch of a commit group: mutates is what the log stage
// decided (its record is owed to the log), err what its caller is told.
type queued struct {
	batch
	mutates bool
	err     error
}

// run is the session worker: it commits the queue one group at a time,
// in arrival order, until the session is closed, then retires the
// session (for a durable one: WAL close or directory removal).
func (s *Session) run() {
	defer s.svc.workers.Done()
	var next batch
	held := false // next is a gated batch the last group's drain pulled
	for {
		if !held {
			var open bool
			if next, open = <-s.queue; !open {
				break
			}
		}
		if next.gate != nil {
			<-next.gate
		}
		next, held = s.commit(next)
	}
	s.retire()
}

// groupEvents bounds a durable commit group: the group ends at the batch
// that brings this many events together, which bounds how long one
// group holds the session lock for its apply.
const groupEvents = 4096

// commit handles one group — the batch the worker received and, on a
// durable session, whatever is already queued behind it — with
// write-ahead ordering and one fsync. Log: every mutating batch's record,
// encoded at admission, is appended to the WAL. Sync: one wal.Sync covers
// those records. Apply, the only stage under the session lock: each
// mutating record joins the in-memory log and each batch goes through
// applyBatchLocked, in queue order. Then, after the unlock, report the
// group's violations and notify in queue order. The worker is the only
// writer of what mu guards, so log and sync read that state unlocked and
// no query waits on the disk; the in-memory log is always a prefix of the
// synced WAL. Nothing waits for a group to fill — an empty queue gives a
// group of one. A group exists to share an fsync, so a memory session's
// are all of one: batching there would only hold early acks back for
// later applies. A group ends at a seal, before a gated batch (handed
// back: it opens the next group), at the batch that brings groupEvents
// events together, or when the queue is empty. What holds:
//
//	(a) no batch is applied or acked before the fsync covering its record
//	    returned; an append or sync failure degrades the session, and
//	    every mutating batch of the group reports ErrDegraded, is NOT
//	    applied and never joins the log, whose watermarks stay the WAL's;
//	(b) acks leave in queue order;
//	(c) when a batch poisons the session the later records of its group
//	    are already logged: applyLocked rejects them here as it does on
//	    replay, so applied, the log's "first applied events" rule,
//	    verdict, line and watermarks agree between the two.
func (s *Session) commit(first batch) (next batch, held bool) {
	var buf [8]queued // most groups fit: no allocation, nothing kept between groups
	group := append(buf[:0], queued{batch: first})
	d := s.dur
	var start time.Time
	if d != nil {
		start = time.Now()
	}

	// Log. mutates is judged against the state before the group: sealed
	// cannot change inside one, failErr can — see (c).
	var logErr error
	records, bytes, events := 0, 0, 0
drain:
	for i := 0; ; i++ {
		q := &group[i]
		q.mutates = (q.count > 0 && !s.inc.Sealed() && s.failErr == nil) || (q.seal && !s.inc.Sealed())
		if q.mutates && d != nil && !d.degraded {
			records, bytes, events = records+1, bytes+len(q.raw), events+q.count
			if logErr = d.wal.Append(q.raw); logErr != nil {
				break
			}
		}
		if d == nil || q.seal || events >= groupEvents {
			break
		}
		select {
		case b, open := <-s.queue:
			if !open {
				break drain
			}
			if b.gate != nil {
				next, held = b, true
				break drain
			}
			group = append(group, queued{batch: b})
		default:
			break drain
		}
	}

	// Sync.
	if records > 0 && logErr == nil {
		if testHookLogged != nil {
			testHookLogged(s.ID)
		}
		if logErr = d.wal.Sync(); logErr == nil {
			s.svc.mWALAppends.Add(int64(records))
			s.svc.mWALAppendBytes.Add(int64(bytes))
			s.svc.mWALSyncs.Inc()
			s.svc.hWALGroup.Observe(float64(records))
			s.svc.hWALAppend.Observe(time.Since(start).Seconds())
		}
	}

	// Apply. On a degraded session mutating batches are skipped, and every
	// batch reports the failure — barriers (Flush, Seal) too, so async
	// producers learn their earlier batches were dropped. Only here are
	// events counted as ingested: a replay applies them again.
	s.mu.Lock()
	if logErr != nil {
		s.degradeLocked(logErr)
	}
	var degraded error
	if d != nil && d.degraded {
		degraded = fmt.Errorf("%w: %v", ErrDegraded, d.degradedErr)
	}
	applied := s.applied
	for i := range group {
		q := &group[i]
		if degraded == nil || !q.mutates {
			logged := q.mutates && d != nil // it has a record in the WAL
			if q.mutates {
				s.log = binenc.AppendBytes(s.log, q.raw)
			}
			if logged && testHookAppended != nil {
				testHookAppended(s.ID)
			}
			q.err = s.applyBatchLocked(&q.record)
			if logged && testHookApplied != nil {
				testHookApplied(s.ID)
			}
		}
		if q.err == nil {
			q.err = degraded
		}
	}
	if n := s.applied - applied; n > 0 {
		s.svc.mIngested.Add(n)
	}
	s.mu.Unlock()
	s.reportViolations() // before the acks: an acked batch's violations are visible

	for i := range group {
		q := &group[i]
		if q.notify != nil {
			q.notify(q.err)
		}
	}
	return next, held
}

// applyBatchLocked is the single apply path, shared verbatim by live
// ingestion and WAL replay — which is what makes replay bit-identical.
func (s *Session) applyBatchLocked(rec *record) error {
	var err error
	var ev event
	for er := rec.reader(); er.next(&ev); {
		if err = s.applyLocked(&ev); err != nil {
			break
		}
	}
	if err == nil && rec.seal && !s.inc.Sealed() {
		s.inc.Seal()
		s.publishLocked()
	}
	return err
}

// applyLocked applies one event to the incremental checker. The first
// error poisons the session: events already applied cannot be unwound,
// so a partially applied stream must not pretend to be a coherent run.
func (s *Session) applyLocked(ev *event) error {
	if s.inc.Sealed() {
		s.svc.reject(reasonSealed, 1)
		return ErrSealed
	}
	if s.failErr != nil {
		s.svc.reject(reasonFailed, 1)
		return fmt.Errorf("%w: %v", ErrFailed, s.failErr)
	}
	if err := s.applyOneLocked(ev); err != nil {
		s.failErr = err
		s.publishLocked()
		s.svc.reject(reasonInvalid, 1)
		return fmt.Errorf("%w: %v", ErrFailed, err)
	}
	s.applied++
	return nil
}

// delivered is the tombstone Session.msgs holds for a delivered message:
// the checker's handles are never negative.
const delivered = -1

// applyOneLocked keeps the service's own rules — client message ids and
// the checkpoint cap — and leaves every other one to the checker.
func (s *Session) applyOneLocked(ev *event) error {
	switch ev.op {
	case opCheckpoint:
		if s.inc.NumCheckpoints() >= s.svc.cfg.MaxCheckpoints {
			return fmt.Errorf("checkpoint limit %d reached; seal the session", s.svc.cfg.MaxCheckpoints)
		}
		_, _, err := s.inc.Checkpoint(model.ProcID(ev.proc))
		return err
	case opSend:
		if _, used := s.msgs[ev.msg]; used {
			return fmt.Errorf("send: message id %d already used", ev.msg)
		}
		h, err := s.inc.Send(model.ProcID(ev.proc), model.ProcID(ev.peer))
		if err != nil {
			return err
		}
		s.msgs[ev.msg] = h
		return nil
	default: // opDeliver: a record holds no other op
		h, ok := s.msgs[ev.msg]
		if !ok || h == delivered {
			return fmt.Errorf("deliver: message id %d unknown or already delivered", ev.msg)
		}
		if err := s.inc.Deliver(h); err != nil {
			return err
		}
		s.msgs[ev.msg] = delivered
		return nil
	}
}

// enqueue places a batch on the queue without ever blocking: a full
// queue is backpressure the caller reports to the client, and it never
// takes mu — the worker holds that for each group's apply — only qmu,
// which makes the close in closeQueue safe against the non-blocking send.
// The sealed/failed/degraded checks read the worker's published view;
// a batch that slips past a concurrent change is rejected at apply time.
func (s *Session) enqueue(b batch) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.enqueueLocked(b)
}

func (s *Session) enqueueLocked(b batch) error {
	s.touch()
	if s.closed {
		return ErrClosed
	}
	if a := s.adm.Load(); a != nil {
		if b.count > 0 {
			if a.sealed {
				s.svc.reject(reasonSealed, b.count)
				return ErrSealed
			}
			if a.failErr != nil {
				s.svc.reject(reasonFailed, b.count)
				return fmt.Errorf("%w: %v", ErrFailed, a.failErr)
			}
		}
		// A degraded session cannot make new mutations durable; reject them
		// up front (pure barriers still pass — reads remain served).
		if (b.count > 0 || b.seal) && a.degradedErr != nil {
			s.svc.reject(reasonDegraded, max(b.count, 1))
			return fmt.Errorf("%w: %v", ErrDegraded, a.degradedErr)
		}
	}
	select {
	case s.queue <- b:
		return nil
	default:
		// Two series: the per-event rejection breakdown and the plain
		// request-level backpressure counter alert rules key on.
		s.svc.mBackpressure.Inc()
		s.svc.reject(reasonBackpressure, max(b.count, 1))
		return ErrBackpressure
	}
}

// Enqueue submits events for asynchronous application; the caller's
// slice is free on return. It returns ErrInvalidEvent (the batch refused
// whole), ErrBackpressure when the queue is full, ErrSealed/ErrFailed/
// ErrClosed when the session no longer ingests. Acceptance is not
// application: an event racing a concurrent seal may still be rejected
// by the worker.
func (s *Session) Enqueue(events []Event) error {
	return s.EnqueueNotify(events, nil)
}

// EnqueueNotify is Enqueue with a completion callback: when the batch
// has been accepted (nil return), notify runs in the session worker
// after the batch is applied (or rejected at apply time), with the apply
// error — which is how callers order acks after application. notify must
// not block; on a non-nil return it never runs.
func (s *Session) EnqueueNotify(events []Event, notify func(error)) error {
	rec, err := encodeRecord(events, false, "", 0)
	if err != nil {
		s.svc.reject(reasonInvalid, len(events))
		return err
	}
	return s.enqueue(batch{record: rec, notify: notify})
}

// ProducerSeq returns the highest frame sequence accepted from producer
// (0 before the first frame) — the value a resuming stream client
// replays from.
func (s *Session) ProducerSeq(producer string) uint64 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.strmSeq[producer]
}

// ErrSeqGap means a producer skipped ahead of its accepted sequence —
// frames were lost in a way TCP ordering cannot explain, so the
// connection is broken by protocol.
var ErrSeqGap = errors.New("sequence gap")

// EnqueueSeq enqueues one stream frame with at-least-once dedup: seq
// numbers a producer's mutating frames contiguously from 1. A frame one
// past the accepted sequence is enqueued (advancing the sequence only
// when acceptance succeeds, so a backpressured frame retries with the
// same seq); a frame at or below it is a replay of something already
// accepted — possibly not yet applied — and is reported as a duplicate
// with no effect; a frame further ahead fails with ErrSeqGap. seal
// marks a seal frame (its events must be nil). notify follows
// EnqueueNotify semantics and never runs for duplicates.
func (s *Session) EnqueueSeq(producer string, seq uint64, events []Event, seal bool, notify func(error)) (dup bool, err error) {
	rec, err := encodeRecord(events, seal, producer, seq)
	if err != nil {
		s.svc.reject(reasonInvalid, len(events))
		return false, err
	}
	return s.enqueueSeq(rec, notify)
}

// EnqueueEncoded is EnqueueSeq for count events in the binary encoding
// (AppendEvent), an EVENTS frame's bytes: copied into the record as they
// are, and refused with ErrInvalidEvent unless they are count events.
func (s *Session) EnqueueEncoded(producer string, seq uint64, count int, events []byte, seal bool, notify func(error)) (dup bool, err error) {
	rec := newRecord(seal, producer, seq, count, len(events))
	rec.raw = append(rec.raw, events...)
	if err := rec.check(); err != nil {
		s.svc.reject(reasonInvalid, max(count, 1))
		return false, fmt.Errorf("%w: %v", ErrInvalidEvent, err)
	}
	return s.enqueueSeq(rec, notify)
}

// enqueueSeq is the dedup check and enqueue of a checked stream frame.
func (s *Session) enqueueSeq(rec record, notify func(error)) (dup bool, err error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	last := s.strmSeq[rec.producer]
	switch {
	case rec.seq <= last:
		return true, nil
	case rec.seq > last+1:
		return false, fmt.Errorf("%w: producer %q sent seq %d after %d", ErrSeqGap, rec.producer, rec.seq, last)
	}
	if err := s.enqueueLocked(batch{record: rec, notify: notify}); err != nil {
		return false, err
	}
	if s.strmSeq == nil {
		s.strmSeq = make(map[string]uint64)
	}
	s.strmSeq[rec.producer] = rec.seq
	return false, nil
}

// await enqueues b and waits for the worker's word on it, or for ctx.
func (s *Session) await(ctx context.Context, b batch) error {
	done := make(chan error, 1) // buffered: the worker never blocks on a caller that gave up
	b.notify = func(err error) { done <- err }
	if err := s.enqueue(b); err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Flush waits until every batch enqueued before it has been applied: a
// read barrier for verdict queries that must observe all acknowledged
// events. The barrier itself is subject to backpressure.
func (s *Session) Flush(ctx context.Context) error { return s.await(ctx, batch{}) }

// Seal finalizes the session the way Builder.FinalizeLossy ends a run:
// in-flight messages are dropped and event-bearing open intervals get
// final checkpoints. Sealing is ordered through the queue, so every
// previously acknowledged batch is applied first. Idempotent.
func (s *Session) Seal(ctx context.Context) error {
	if a := s.adm.Load(); a != nil && a.sealed {
		return nil
	}
	return s.await(ctx, batch{record: newRecord(true, "", 0, 0, 0)})
}

// closeQueue stops ingestion permanently (eviction, drain). The worker
// drains batches already accepted, then exits.
func (s *Session) closeQueue() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
}

// CkptRef names a checkpoint on the wire.
type CkptRef struct {
	Proc  int `json:"proc"`
	Index int `json:"index"`
}

// ViolationInfo renders one untrackable R-path on the wire.
type ViolationInfo struct {
	From   CkptRef `json:"from"`
	To     CkptRef `json:"to"`
	String string  `json:"string"`
}

func violationInfo(v rgraph.Violation) ViolationInfo {
	return ViolationInfo{
		From:   CkptRef{Proc: int(v.From.Proc), Index: v.From.Index},
		To:     CkptRef{Proc: int(v.To.Proc), Index: v.To.Index},
		String: v.String(),
	}
}

// Session states reported by Verdict and the session list.
const (
	StateActive = "active"
	StateSealed = "sealed"
	StateFailed = "failed"
)

// Verdict is the live RDT verdict of a session: the seal-now report of
// the incremental checker plus session bookkeeping.
type Verdict struct {
	Session        string          `json:"session"`
	N              int             `json:"n"`
	State          string          `json:"state"`
	Error          string          `json:"error,omitempty"`
	EventsApplied  int64           `json:"events_applied"`
	Checkpoints    int             `json:"checkpoints"`
	InFlight       int             `json:"in_flight"`
	RDT            bool            `json:"rdt"`
	RPathPairs     int             `json:"rpath_pairs"`
	TrackablePairs int             `json:"trackable_pairs"`
	Violations     []ViolationInfo `json:"violations,omitempty"`
	FirstViolation *ViolationInfo  `json:"first_violation,omitempty"`
}

// Verdict evaluates the seal-now pattern (see Incremental.Report),
// listing at most maxViolations untrackable pairs (<= 0 for the service
// default).
func (s *Session) Verdict(maxViolations int) *Verdict {
	if maxViolations <= 0 {
		maxViolations = DefaultMaxViolations
	}
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.inc.Report(maxViolations)
	v := &Verdict{
		Session:        s.ID,
		N:              s.N,
		State:          s.stateLocked(),
		EventsApplied:  s.applied,
		Checkpoints:    s.inc.NumCheckpoints(),
		InFlight:       s.inc.InFlight(),
		RDT:            rep.RDT,
		RPathPairs:     rep.RPathPairs,
		TrackablePairs: rep.TrackablePairs,
	}
	if s.failErr != nil {
		v.Error = s.failErr.Error()
	} else if s.dur != nil && s.dur.degraded {
		v.Error = fmt.Sprintf("%v: %v", ErrDegraded, s.dur.degradedErr)
	}
	for _, viol := range rep.Violations {
		v.Violations = append(v.Violations, violationInfo(viol))
	}
	if len(rep.Violations) > 0 {
		first := violationInfo(rep.Violations[0])
		v.FirstViolation = &first
	}
	return v
}

func (s *Session) stateLocked() string {
	switch {
	case s.failErr != nil:
		return StateFailed
	case s.dur != nil && s.dur.degraded:
		return StateDegraded
	case s.inc.Sealed():
		return StateSealed
	default:
		return StateActive
	}
}

// Info is one row of the session list.
type Info struct {
	ID            string    `json:"id"`
	N             int       `json:"n"`
	State         string    `json:"state"`
	EventsApplied int64     `json:"events_applied"`
	Checkpoints   int       `json:"checkpoints"`
	QueuedBatches int       `json:"queued_batches"`
	Created       time.Time `json:"created"`
	LastActive    time.Time `json:"last_active"`
}

// Info returns the session-list row.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		ID:            s.ID,
		N:             s.N,
		State:         s.stateLocked(),
		EventsApplied: s.applied,
		Checkpoints:   s.inc.NumCheckpoints(),
		QueuedBatches: len(s.queue),
		Created:       s.created,
		LastActive:    time.Unix(0, s.lastActive.Load()),
	}
}

// patternLocked materializes the pattern-so-far: a fresh builder fed
// the first s.applied events of the log — exactly the accepted ones; a
// poisoned batch's tail and anything after it are past the count — with
// every checkpoint annotated by the vector the checker recorded for it,
// then finalized with FinalizeLossy semantics (final checkpoints close
// event-bearing intervals, in-flight messages are reported as lost).
// Cost is one pass over the log, so the session limits bound it.
func (s *Session) patternLocked() (*model.Pattern, []model.LostMessage, error) {
	b := model.NewBuilder(s.N)
	handles := make(map[int]int) // client message id -> builder handle
	left := s.applied
	var ev event
	for r := binenc.NewReader(s.log); left > 0; {
		rec, err := recordHeader(r.Bytes())
		if err != nil {
			return nil, nil, fmt.Errorf("session log: %w", err)
		}
		for er := rec.reader(); left > 0 && er.next(&ev); left-- {
			switch ev.op {
			case opCheckpoint:
				kind := model.KindBasic
				if ev.forced {
					kind = model.KindForced
				}
				p := model.ProcID(ev.proc)
				b.Checkpoint(p, kind, s.inc.TDVAt(model.CkptID{Proc: p, Index: b.NextIndex(p)}))
			case opSend:
				handles[ev.msg] = b.Send(model.ProcID(ev.proc), model.ProcID(ev.peer))
			case opDeliver:
				if err := b.Deliver(handles[ev.msg]); err != nil {
					return nil, nil, fmt.Errorf("session log: %w", err)
				}
			}
		}
	}
	return b.FinalizeLossy()
}

// Snapshot returns the pattern-so-far as if the run ended now (see
// patternLocked), leaving the session ingesting.
func (s *Session) Snapshot() (*model.Pattern, []model.LostMessage, error) {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.patternLocked()
}

// Explain materializes the pattern-so-far and derives a minimal witness
// — the concrete non-causal zigzag chain — for each of the incremental
// checker's violations (at most maxViolations of them; <= 0 for the
// service default). The pattern is returned with the witnesses so
// callers can render them (DOT, JSON).
func (s *Session) Explain(maxViolations int) (*model.Pattern, []*rgraph.Witness, error) {
	if maxViolations <= 0 {
		maxViolations = DefaultMaxViolations
	}
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	p, _, err := s.patternLocked()
	if err != nil {
		return nil, nil, err
	}
	_, ws, err := s.inc.Explain(p, maxViolations)
	if err != nil {
		return nil, nil, err
	}
	return p, ws, nil
}

// Line computes the recovery line from the session's closed
// checkpoints: each process is bounded by its latest taken checkpoint
// and the dependency vectors the checker recorded drive the fixpoint
// (recovery.Line), which is all a rollback system reads from its store.
func (s *Session) Line() (*recovery.Plan, error) {
	s.touch()
	s.mu.Lock()
	bounds := make(model.GlobalCheckpoint, s.N)
	for i := range bounds {
		bounds[i] = s.inc.NextIndex(model.ProcID(i)) - 1
	}
	plan, err := recovery.Line(bounds, func(proc, index int) ([]int, error) {
		return s.inc.TDVAt(model.CkptID{Proc: model.ProcID(proc), Index: index}), nil
	})
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	recovery.Observe(s.svc.cfg.Registry, s.svc.cfg.Tracer, plan)
	return plan, nil
}

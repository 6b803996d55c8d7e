package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/rdt-go/rdt/internal/core"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/recovery"
	"github.com/rdt-go/rdt/internal/rgraph"
	"github.com/rdt-go/rdt/internal/service"
	"github.com/rdt-go/rdt/internal/storage"
	"github.com/rdt-go/rdt/internal/stream"
)

// procs is the process count of every benchmark session, matching the
// paper-scale grid and BENCH_9.
const procs = 8

// Traffic families. The daemon only ever sees the events; which family
// produced them is the generator's business.
const (
	// famUnprotected is stream.NewTraffic("random"): basic checkpoints
	// only, so it violates RDT heavily.
	famUnprotected = "unprotected"
	// famBHMR passes the same stream through eight BHMR protocol
	// instances, which add the forced checkpoints that make it RDT.
	famBHMR = "bhmr"
)

// sessionSeed derives session i's generator seed from the run seed.
func sessionSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// input is one generated session: its events, the pre-encoded JSON
// bodies when a JSON workload replays it, and the reference verdict.
type input struct {
	events []service.Event
	bodies [][]byte // one POST body per batch; nil unless JSON
	ref    verdict
	// basic and forced count the checkpoints of a bhmr session.
	basic, forced int
}

// genEvents generates exactly count events of the family from seed.
func genEvents(family string, seed int64, count int) (*input, error) {
	tr, err := stream.NewTraffic("random", procs, seed)
	if err != nil {
		return nil, err
	}
	in := &input{}
	switch family {
	case famUnprotected:
		in.events = tr.Next(make([]service.Event, 0, count), count)
	case famBHMR:
		p, err := newProtector(core.KindBHMR)
		if err != nil {
			return nil, err
		}
		var raw [1]service.Event
		for len(p.out) < count {
			p.apply(tr.Next(raw[:0], 1)[0])
		}
		// A protected step can emit two events; cutting the tail off
		// leaves at worst an undelivered send, which is still valid.
		in.events = p.out[:count:count]
		for _, ev := range in.events {
			if ev.Op != service.OpCheckpoint {
				continue
			}
			if ev.Kind == "forced" {
				in.forced++
			} else {
				in.basic++
			}
		}
	default:
		return nil, fmt.Errorf("unknown traffic family %q", family)
	}
	return in, nil
}

// protector runs a raw event stream through one protocol instance per
// process and emits the stream the protected application would have
// produced: the same sends and deliveries plus the forced checkpoints.
type protector struct {
	insts []core.Instance
	pbs   map[int]msgInfo // in-flight message id -> piggyback
	out   []service.Event
}

type msgInfo struct {
	from, to int
	pb       core.Piggyback
}

func newProtector(kind core.Kind) (*protector, error) {
	p := &protector{pbs: make(map[int]msgInfo)}
	for i := 0; i < procs; i++ {
		inst, err := core.New(kind, i, procs, p.sink)
		if err != nil {
			return nil, err
		}
		p.insts = append(p.insts, inst)
	}
	return p, nil
}

func (p *protector) sink(rec core.CheckpointRecord) {
	switch rec.Kind {
	case model.KindBasic:
		p.out = append(p.out, service.Event{Op: service.OpCheckpoint, Proc: rec.Proc, Kind: "basic"})
	case model.KindForced:
		p.out = append(p.out, service.Event{Op: service.OpCheckpoint, Proc: rec.Proc, Kind: "forced"})
	}
}

func (p *protector) apply(ev service.Event) {
	switch ev.Op {
	case service.OpCheckpoint:
		p.insts[ev.Proc].TakeBasicCheckpoint()
	case service.OpSend:
		pb, forceAfter := p.insts[ev.Proc].OnSend(ev.Peer)
		p.pbs[ev.Msg] = msgInfo{from: ev.Proc, to: ev.Peer, pb: pb}
		p.out = append(p.out, ev)
		if forceAfter {
			p.insts[ev.Proc].CheckpointAfterSend()
		}
	case service.OpDeliver:
		m := p.pbs[ev.Msg]
		delete(p.pbs, ev.Msg)
		p.insts[m.to].OnArrival(m.from, m.pb) // a forced checkpoint lands before the delivery
		p.out = append(p.out, ev)
	}
}

// verdict is what the benchmark compares between the served session and
// the batch reference: the RDT flag, the pair counts (their difference
// is the violation count), the first violation, the listed violations
// and the recovery line.
type verdict struct {
	Events      int64    `json:"events"`
	Checkpoints int      `json:"checkpoints"`
	RDT         bool     `json:"rdt"`
	RPathPairs  int      `json:"rpath_pairs"`
	Trackable   int      `json:"trackable_pairs"`
	First       string   `json:"first_violation"`
	Violations  []string `json:"violations"`
	Line        []int    `json:"line"`
}

// diff names the fields in which v differs from o, with both values;
// it is empty when the verdicts agree.
func (v verdict) diff(o verdict) string {
	var a, b map[string]json.RawMessage
	va, _ := json.Marshal(v)
	vb, _ := json.Marshal(o)
	_ = json.Unmarshal(va, &a)
	_ = json.Unmarshal(vb, &b)
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		if string(a[k]) != string(b[k]) {
			out += fmt.Sprintf(" %s: %s != %s;", k, a[k], b[k])
		}
	}
	return out
}

// replay applies events to a checker, a builder or both in lockstep,
// mapping client message ids to the handles each hands out.
type replay struct {
	inc    *rgraph.Incremental
	b      *model.Builder
	ih, bh map[int]int
}

func newReplay(checker, builder bool) (*replay, error) {
	r := &replay{ih: make(map[int]int), bh: make(map[int]int)}
	if checker {
		inc, err := rgraph.NewIncremental(procs)
		if err != nil {
			return nil, err
		}
		r.inc = inc
	}
	if builder {
		r.b = model.NewBuilder(procs)
	}
	return r, nil
}

func (r *replay) apply(events []service.Event) error {
	for i, ev := range events {
		var err error
		switch ev.Op {
		case service.OpCheckpoint:
			var tdv []int
			if r.inc != nil {
				_, tdv, err = r.inc.Checkpoint(model.ProcID(ev.Proc))
			}
			if r.b != nil {
				kind := model.KindBasic
				if ev.Kind == "forced" {
					kind = model.KindForced
				}
				r.b.Checkpoint(model.ProcID(ev.Proc), kind, tdv)
			}
		case service.OpSend:
			if r.inc != nil {
				r.ih[ev.Msg], err = r.inc.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
			}
			if r.b != nil {
				r.bh[ev.Msg] = r.b.Send(model.ProcID(ev.Proc), model.ProcID(ev.Peer))
			}
		case service.OpDeliver:
			if r.inc != nil {
				err = r.inc.Deliver(r.ih[ev.Msg])
				delete(r.ih, ev.Msg)
			}
			if r.b != nil && err == nil {
				err = r.b.Deliver(r.bh[ev.Msg])
				delete(r.bh, ev.Msg)
			}
		}
		if err != nil {
			return fmt.Errorf("event %d (%s): %w", i, ev.Op, err)
		}
	}
	return nil
}

// referenceVerdict computes the verdict of an unsealed session that has
// applied exactly events, from the paper's batch definitions: CheckRDT
// on the seal-now pattern and the dependency-vector fixpoint over the
// off-line vectors. Nothing here touches rgraph.Incremental.
func referenceVerdict(events []service.Event) (verdict, error) {
	r, err := newReplay(false, true)
	if err != nil {
		return verdict{}, err
	}
	if err := r.apply(events); err != nil {
		return verdict{}, err
	}
	b := r.b
	bounds := make(model.GlobalCheckpoint, procs)
	closed := 0 // initial checkpoints included, as the service counts them
	for i := range bounds {
		closed += b.NextIndex(model.ProcID(i))
		bounds[i] = b.NextIndex(model.ProcID(i)) - 1
	}
	p, _, err := b.Snapshot()
	if err != nil {
		return verdict{}, err
	}
	rep, err := rgraph.CheckRDT(p, service.DefaultMaxViolations)
	if err != nil {
		return verdict{}, err
	}
	tdvs, err := rgraph.ComputeTDVs(p)
	if err != nil {
		return verdict{}, err
	}
	mgr, err := recovery.NewManager(tdvStore{tdvs}, procs)
	if err != nil {
		return verdict{}, err
	}
	plan, err := mgr.LineFrom(bounds)
	if err != nil {
		return verdict{}, err
	}
	v := verdict{
		Events:      int64(len(events)),
		Checkpoints: closed,
		RDT:         rep.RDT,
		RPathPairs:  rep.RPathPairs,
		Trackable:   rep.TrackablePairs,
		Line:        plan.Line,
	}
	for _, viol := range rep.Violations {
		v.Violations = append(v.Violations, viol.String())
	}
	if len(v.Violations) > 0 {
		v.First = v.Violations[0]
	}
	return v, nil
}

// tdvStore serves the off-line dependency vectors to recovery.Manager,
// which reads only Get.
type tdvStore struct{ tdvs *rgraph.TDVTable }

func (s tdvStore) Get(proc, index int) (storage.Checkpoint, error) {
	tdv := s.tdvs.At(model.CkptID{Proc: model.ProcID(proc), Index: index})
	return storage.Checkpoint{Proc: proc, Index: index, TDV: tdv}, nil
}
func (s tdvStore) Latest(int) (storage.Checkpoint, error) { return storage.Checkpoint{}, errReadOnly }
func (s tdvStore) Indexes(int) ([]int, error)             { return nil, errReadOnly }
func (s tdvStore) Put(storage.Checkpoint) error           { return errReadOnly }
func (s tdvStore) Delete(int, int) error                  { return errReadOnly }

var errReadOnly = fmt.Errorf("reference store serves Get only")

// genPool generates count sessions of size events each, with their
// reference verdicts and, for a JSON workload, the POST bodies.
func genPool(family string, seed int64, count, size, jsonBatch int) ([]*input, error) {
	pool := make([]*input, count)
	for i := range pool {
		in, err := genEvents(family, sessionSeed(seed, i), size)
		if err != nil {
			return nil, err
		}
		if in.ref, err = referenceVerdict(in.events); err != nil {
			return nil, fmt.Errorf("session %d: reference verdict: %w", i, err)
		}
		for off := 0; jsonBatch > 0 && off < size; off += jsonBatch {
			body, err := json.Marshal(in.events[off:min(off+jsonBatch, size)])
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
		}
		pool[i] = in
	}
	return pool, nil
}

// poolDigest hashes the inputs and reference verdicts of a pool. Two
// runs with the same seed must produce the same digest; for seed 1 it
// is committed under golden/, so a drift of the generator or of the
// batch checker shows even when served and reference still agree.
func poolDigest(pool []*input) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, in := range pool {
		_ = enc.Encode(in.events)
		_ = enc.Encode(in.ref)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

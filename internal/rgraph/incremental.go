package rgraph

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// Incremental is the on-line RDT checker: it consumes the same event
// stream a model.Builder does — checkpoints, sends, deliveries — and
// maintains, per event, everything the visible characterization needs:
//
//   - the running transitive dependency vector of every process, updated
//     exactly as an ideal on-line tracker would (copy on checkpoint,
//     stamp on send, componentwise max on delivery), so the vector
//     recorded with checkpoint C_{i,x} equals the offline TDV that
//     Analyzer.ComputeTDVs would compute for it;
//   - the R-graph of the run so far, including one *pending* node per
//     process for the checkpoint that will close its current interval
//     (messages create edges between intervals before the checkpoints
//     closing them exist), with its reachability kept as one interval
//     vector per node (minReach: the dual of the TDV), lowered under
//     edge insertions;
//   - the set of untrackable R-paths among closed checkpoints, which is
//     monotone — a checkpoint's vector is immutable once taken and
//     R-paths are never removed — so each violating pair is detected
//     exactly once, at the event that creates it.
//
// Report renders the verdict of the *seal-now* pattern: the pattern a
// Seal call would produce at this instant (final checkpoints closing
// every interval that contains an event, undelivered messages dropped).
// After Seal, Report matches Analyzer.CheckRDT on the finalized pattern
// — verdict, pair counts, and first violation — which the differential
// property test asserts on generated runs.
//
// An Incremental is not safe for concurrent use; callers (the service's
// session workers) serialize access.
type Incremental struct {
	n      int
	sealed bool

	cur     []vclock.Vec        // running dependency vector per process
	flight  map[int]pendingEdge // in-flight message -> stamp slot and future R-graph edge
	nextMsg int
	// Send stamps: slot s is stamps[s*n:][:n], and free holds the slots
	// of delivered messages, so a send copies into the slab instead of
	// cloning.
	stamps []int
	free   []int

	// R-graph over interval nodes. ids[i][x] is the node of C_{i,x};
	// per process the allocated indexes always cover 0..nextIndex[i],
	// where nextIndex[i] is the open interval (its node is pending).
	ids       [][]int32
	nextIndex []int
	events    []int // sends+deliveries in the open interval, per process

	nodeProc  []int32
	nodeIndex []int32
	taken     []bool
	preds     [][]int32 // direct predecessors, deduplicated
	// Recorded vectors, by node: node v's is vec(v), a slot of chunk
	// v>>vecShift that newNode allocates, valid once taken[v]. Every
	// chunk holds 2^vecShift nodes but the first, which starts at one
	// and doubles, so a node needs no slice header of its own.
	vecChunks [][]int
	vecShift  int

	// Transitive closure. Every process's nodes form a chain C_{j,y} ->
	// C_{j,y+1}, so what node u reaches in process j is a suffix of j's
	// indexes: minReach[u*n+j] is its first index (paths of length >= 1),
	// or noReach. Two monotonicity invariants carry the algorithm: along
	// the chain of process k, minReach[C_{k,x}][j] is non-decreasing in x
	// (an earlier node reaches whatever a later one does), and so is
	// every entry of the recorded vectors (a running vector only grows).
	minReach []int32
	noRow    []int32 // n times noReach: the row a new node starts with
	// reach[k*n+j] counts the nodes of process k that reach some node of
	// process j. By the first invariant they are a prefix of k's chain,
	// and since every finite entry of column j names a node of j's chain,
	// whose last node is its pending one, they are exactly the nodes of
	// k that reach j's pending node.
	reach []int32

	// Monotone violation accounting over closed checkpoints.
	violations  int
	first       *Violation
	onViolation func(Violation)

	work       []int32 // propagation worklist
	growVisits int     // grow calls so far; the scaling-guard test reads it
}

// noReach marks a process in which a node reaches no checkpoint.
const noReach = math.MaxInt32

// vecChunkInts sizes a chunk of recorded vectors, in ints, rounded down
// to a power-of-two number of vectors (one vector if n is larger): a
// session holds at most one chunk's worth of unused slots, fewer bytes
// than the per-node slice headers the chunks replace once it has a few
// hundred checkpoints.
const vecChunkInts = 512

type pendingEdge struct {
	from, to     model.ProcID
	sendInterval int
	slot         int // stamp slot: from's running vector at the send
}

// NewIncremental returns a checker for n processes, each starting with
// its initial checkpoint C_{i,0} (zero dependency vector), mirroring
// model.NewBuilder.
func NewIncremental(n int) (*Incremental, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rgraph: incremental checker needs at least 1 process, have %d", n)
	}
	inc := &Incremental{
		n:         n,
		cur:       make([]vclock.Vec, n),
		flight:    make(map[int]pendingEdge),
		ids:       make([][]int32, n),
		nextIndex: make([]int, n),
		events:    make([]int, n),
		noRow:     newNoRow(n),
		reach:     make([]int32, n*n),
		vecShift:  vecShiftFor(n),
	}
	for i := 0; i < n; i++ {
		inc.cur[i] = vclock.NewVec(n)
		initial := inc.newNode(model.ProcID(i), 0)
		inc.taken[initial] = true // C_{i,0} depends on nothing: its slot is zero
		inc.cur[i][i] = 1
		inc.nextIndex[i] = 1
		pending := inc.newNode(model.ProcID(i), 1)
		inc.addEdge(initial, pending)
	}
	return inc, nil
}

// N returns the number of processes.
func (inc *Incremental) N() int { return inc.n }

// OnViolation registers a callback invoked once per untrackable R-path
// between closed checkpoints, at the event that creates it. The callback
// runs synchronously inside Checkpoint/Deliver/Seal; the order in which
// one event's violations are delivered is unspecified.
func (inc *Incremental) OnViolation(fn func(Violation)) { inc.onViolation = fn }

// Violations returns the number of untrackable R-paths detected so far
// among closed checkpoints. (Pairs ending at a still-open interval are
// judged by Report, which evaluates the seal-now pattern.)
func (inc *Incremental) Violations() int { return inc.violations }

// FirstViolation returns the least violating pair detected so far — the
// one Analyzer.CheckRDT would report first — or nil while the closed
// prefix is RDT. The returned value must not be modified.
func (inc *Incremental) FirstViolation() *Violation { return inc.first }

// RDT reports whether every R-path between closed checkpoints is
// trackable so far.
func (inc *Incremental) RDT() bool { return inc.violations == 0 }

// NextIndex returns the index of the open checkpoint interval of process
// i — the index its next checkpoint will get.
func (inc *Incremental) NextIndex(i model.ProcID) int { return inc.nextIndex[i] }

// Current returns the running dependency vector of process i: the vector
// its next checkpoint would record. The returned slice is live; callers
// must not modify it.
func (inc *Incremental) Current(i model.ProcID) vclock.Vec { return inc.cur[i] }

// TDVAt returns the vector recorded with a closed checkpoint, or nil if
// the checkpoint has not been taken. The returned slice must not be
// modified.
func (inc *Incremental) TDVAt(c model.CkptID) []int {
	if int(c.Proc) < 0 || int(c.Proc) >= inc.n || c.Index < 0 || c.Index >= len(inc.ids[c.Proc]) {
		return nil
	}
	v := inc.ids[c.Proc][c.Index]
	if !inc.taken[v] {
		return nil
	}
	return inc.vec(v)
}

// Checkpoint closes the open interval of process i: the pending node
// becomes the checkpoint C_{i,x}, its dependency vector is recorded, and
// every R-path already ending at it is judged. It returns the checkpoint
// identifier and the recorded vector. The vector is a read-only view of
// the checker's own record, the one TDVAt returns: it never changes, so
// a caller may keep it, but must not modify it. Builder.Checkpoint copies
// it, so it can annotate the pattern a parallel Builder accumulates.
func (inc *Incremental) Checkpoint(i model.ProcID) (model.CkptID, []int, error) {
	if inc.sealed {
		return model.CkptID{}, nil, fmt.Errorf("rgraph: incremental checker is sealed")
	}
	if int(i) < 0 || int(i) >= inc.n {
		return model.CkptID{}, nil, fmt.Errorf("rgraph: checkpoint: process %d out of range [0,%d)", i, inc.n)
	}
	id, tdv := inc.close(i)
	return id, tdv, nil
}

func (inc *Incremental) close(i model.ProcID) (model.CkptID, []int) {
	idx := inc.nextIndex[i]
	v := inc.ids[i][idx]

	tdv := inc.vec(v)
	copy(tdv, inc.cur[i])
	inc.taken[v] = true
	inc.cur[i][i] = idx + 1

	// Every R-path into C_{i,idx} is now judgeable, and no later event
	// can add one whose detection this scan would miss: an edge insertion
	// that makes v newly reachable runs through grow, which checks the
	// pair then. v is the last node of i's chain, so the sources in
	// process k are its first reach[k*n+i] nodes, and of those the vector
	// just recorded vouches for 0..tdv[k] (capped at hit so that the +1
	// cannot overflow on a vector that came out of a snapshot).
	for k := 0; k < inc.n; k++ {
		hit := int(inc.reach[k*inc.n+int(i)])
		for x := min(tdv[k], hit) + 1; x < hit; x++ {
			inc.violate(k, x, int(i), idx)
		}
	}

	inc.events[i] = 0
	inc.nextIndex[i] = idx + 1
	pending := inc.newNode(i, idx+1)
	inc.addEdge(v, pending)
	return model.CkptID{Proc: i, Index: idx}, tdv
}

// vecShiftFor returns the log2 of the largest power-of-two number of
// n-entry vectors that fits in vecChunkInts, or 0.
func vecShiftFor(n int) int {
	return max(0, bits.Len(uint(vecChunkInts/n))-1)
}

// vec returns node v's vector slot.
func (inc *Incremental) vec(v int32) []int {
	lo := (int(v) & (1<<inc.vecShift - 1)) * inc.n
	return inc.vecChunks[int(v)>>inc.vecShift][lo : lo+inc.n : lo+inc.n]
}

// Send records that process from sent a message to process to in from's
// open interval, stamping it with from's running vector. It returns a
// handle to pass to Deliver exactly once. A send to itself is refused,
// and like every refused event leaves the checker as it was.
func (inc *Incremental) Send(from, to model.ProcID) (int, error) {
	if inc.sealed {
		return 0, fmt.Errorf("rgraph: incremental checker is sealed")
	}
	if int(from) < 0 || int(from) >= inc.n || int(to) < 0 || int(to) >= inc.n {
		return 0, fmt.Errorf("rgraph: send %d -> %d: process out of range [0,%d)", from, to, inc.n)
	}
	if from == to {
		return 0, fmt.Errorf("rgraph: send %d -> %d: a process cannot message itself", from, to)
	}
	h := inc.nextMsg
	inc.nextMsg++
	inc.flight[h] = pendingEdge{from: from, to: to, sendInterval: inc.nextIndex[from], slot: inc.putStamp(inc.cur[from])}
	inc.events[from]++
	return h, nil
}

// putStamp copies v into a free stamp slot, or into a new one at the end
// of the slab, and returns the slot.
func (inc *Incremental) putStamp(v []int) int {
	if k := len(inc.free) - 1; k >= 0 {
		slot := inc.free[k]
		inc.free = inc.free[:k]
		copy(inc.stamp(slot), v)
		return slot
	}
	inc.stamps = append(inc.stamps, v...)
	return len(inc.stamps)/inc.n - 1
}

// stamp returns the vector in a stamp slot.
func (inc *Incremental) stamp(slot int) []int { return inc.stamps[slot*inc.n:][:inc.n] }

// Deliver records the delivery of a previously sent message: the
// receiver's running vector absorbs the send-time stamp, and the message
// edge I_{from,x} -> I_{to,y} enters the R-graph, possibly completing
// untrackable R-paths (which are reported through OnViolation).
func (inc *Incremental) Deliver(handle int) error {
	if inc.sealed {
		return fmt.Errorf("rgraph: incremental checker is sealed")
	}
	pe, ok := inc.flight[handle]
	if !ok {
		return fmt.Errorf("rgraph: deliver: unknown or already delivered message handle %d", handle)
	}
	delete(inc.flight, handle)

	inc.cur[pe.to].MaxInto(inc.stamp(pe.slot))
	inc.free = append(inc.free, pe.slot)
	inc.events[pe.to]++
	u := inc.ids[pe.from][pe.sendInterval]
	v := inc.ids[pe.to][inc.nextIndex[pe.to]]
	inc.addEdge(u, v)
	return nil
}

// InFlight returns the number of sent but undelivered messages.
func (inc *Incremental) InFlight() int { return len(inc.flight) }

// Seal finalizes the run the way Builder.FinalizeLossy does: undelivered
// messages are dropped and every process whose open interval contains an
// event takes a final checkpoint, so all events belong to closed
// intervals. Further mutations fail. Seal is idempotent.
func (inc *Incremental) Seal() {
	if inc.sealed {
		return
	}
	clear(inc.flight)
	inc.stamps, inc.free = nil, nil
	for i := 0; i < inc.n; i++ {
		if inc.events[i] > 0 {
			inc.close(model.ProcID(i))
		}
	}
	inc.sealed = true
}

// Sealed reports whether Seal has run.
func (inc *Incremental) Sealed() bool { return inc.sealed }

// NumCheckpoints returns the number of closed checkpoints.
func (inc *Incremental) NumCheckpoints() int {
	total := 0
	for i := 0; i < inc.n; i++ {
		total += inc.nextIndex[i]
	}
	return total
}

// Report evaluates the seal-now pattern: the run as if Seal were called
// at this instant. Pending checkpoints of event-bearing intervals are
// judged with the vector they would record (the process's running
// vector); eventless open intervals do not exist in the sealed pattern
// and are excluded. After Seal the result equals Analyzer.CheckRDT on
// the finalized pattern: same verdict, same RPathPairs/TrackablePairs,
// and Violations sorted in the batch checker's enumeration order (so the
// first violation coincides), capped at maxViolations (<= 0 means 16).
func (inc *Incremental) Report(maxViolations int) *Report {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	n := inc.n
	rep := &Report{RDT: true}
	// last[j] is the last index of process j in the seal-now pattern:
	// every closed checkpoint exists there, and so does the pending one
	// of an interval that contains an event (Seal would close it).
	last := make([]int, 3*n)
	seen, at := last[n:2*n], last[2*n:]
	last = last[:n]
	for j := range last {
		last[j] = inc.nextIndex[j] - 1
		if inc.events[j] > 0 {
			last[j]++
		}
	}
	// entry returns entry k of C_{j,y}'s vector, or MaxInt past j's last
	// index.
	entry := func(j, y, k int) int {
		if y > last[j] {
			return math.MaxInt
		}
		return inc.vectorAt(j, y)[k]
	}
	for k, col := range inc.ids {
		// seen[j] is a cut in process j (-1: none yet), at[j] its
		// vector's entry k. For each x it becomes the first index at or
		// past the range start lo whose vector has seen C_{k,x}. Neither
		// lo nor that first index decreases in x (the two invariants), so
		// seen[j] only moves forward, jumping to lo or stepping along j's
		// chain.
		for j := range seen {
			seen[j] = -1
		}
		for x := 0; x <= last[k]; x++ {
			for j, m := range inc.minReach[int(col[x])*n:][:n] {
				lo := int(m)
				if lo > last[j] {
					continue
				}
				if seen[j] < lo {
					seen[j], at[j] = lo, entry(j, lo, k)
				}
				for at[j] < x {
					seen[j]++
					at[j] = entry(j, seen[j], k)
				}
				// C_{k,x} reaches C_{j,lo..last[j]}: the untrackable
				// targets are those before the first one that has seen it.
				cut := seen[j]
				rep.RPathPairs += last[j] + 1 - lo
				rep.TrackablePairs += last[j] + 1 - cut
				if cut > lo {
					rep.RDT = false
				}
				for y := lo; y < cut && len(rep.Violations) < maxViolations; y++ {
					rep.Violations = append(rep.Violations, Violation{
						From: model.CkptID{Proc: model.ProcID(k), Index: x},
						To:   model.CkptID{Proc: model.ProcID(j), Index: y},
					})
				}
			}
		}
	}
	return rep
}

// vectorAt returns the vector C_{j,y} records in the seal-now pattern:
// the recorded one if it is closed, else j's running vector.
func (inc *Incremental) vectorAt(j, y int) []int {
	if y < inc.nextIndex[j] {
		return inc.vec(inc.ids[j][y])
	}
	return inc.cur[j]
}

func lessViolation(a, b Violation) bool {
	if a.From.Proc != b.From.Proc {
		return a.From.Proc < b.From.Proc
	}
	if a.From.Index != b.From.Index {
		return a.From.Index < b.From.Index
	}
	if a.To.Proc != b.To.Proc {
		return a.To.Proc < b.To.Proc
	}
	return a.To.Index < b.To.Index
}

// violate accounts for the untrackable pair C_{aProc,aIdx} -> closed
// C_{bProc,bIdx}. Each pair gets here exactly once: from grow when the
// source's vector drops onto an already closed target, from close for
// the sources that reached the target while it was pending.
func (inc *Incremental) violate(aProc, aIdx, bProc, bIdx int) {
	v := Violation{
		From: model.CkptID{Proc: model.ProcID(aProc), Index: aIdx},
		To:   model.CkptID{Proc: model.ProcID(bProc), Index: bIdx},
	}
	inc.violations++
	if inc.first == nil || lessViolation(v, *inc.first) {
		first := v
		inc.first = &first
	}
	if inc.onViolation != nil {
		inc.onViolation(v)
	}
}

// newNode allocates the R-graph node of C_{i,x}, reaching nothing.
func (inc *Incremental) newNode(i model.ProcID, x int) int32 {
	v := int32(len(inc.nodeProc))
	inc.nodeProc = append(inc.nodeProc, int32(i))
	inc.nodeIndex = append(inc.nodeIndex, int32(x))
	inc.taken = append(inc.taken, false)
	switch c, slot := int(v)>>inc.vecShift, int(v)&(1<<inc.vecShift-1); {
	case slot == 0 && c == 0:
		inc.vecChunks = append(inc.vecChunks, make([]int, inc.n))
	case slot == 0:
		inc.vecChunks = append(inc.vecChunks, make([]int, inc.n<<inc.vecShift))
	case c == 0 && slot*inc.n == len(inc.vecChunks[0]):
		// The first chunk doubles in place until it is full size; views
		// of the vectors recorded in the old array stay valid, since a
		// recorded vector is never written again.
		grown := make([]int, 2*slot*inc.n)
		copy(grown, inc.vecChunks[0])
		inc.vecChunks[0] = grown
	}
	inc.preds = append(inc.preds, nil)
	inc.minReach = append(inc.minReach, inc.noRow...)
	inc.ids[i] = append(inc.ids[i], v)
	return v
}

func newNoRow(n int) []int32 {
	row := make([]int32, n)
	for k := range row {
		row[k] = noReach
	}
	return row
}

// addEdge inserts u -> v and restores the transitive closure, judging
// every pair (w, b) with b closed that the edge newly creates. A fresh
// pending node costs nothing beyond its own chain edge: it lies inside
// every suffix that reaches its predecessor.
func (inc *Incremental) addEdge(u, v int32) {
	for _, p := range inc.preds[v] {
		if p == u {
			return // parallel message between the same interval pair
		}
	}
	inc.preds[v] = append(inc.preds[v], u)

	// Worklist propagation: a node is revisited whenever its vector
	// drops, and entries only ever drop, so the fixpoint terminates and
	// each (node, target) pair is reported as new at most once.
	if !inc.grow(u, v) {
		return
	}
	work := append(inc.work[:0], u)
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range inc.preds[w] {
			if inc.grow(p, w) {
				work = append(work, p)
			}
		}
	}
	inc.work = work
}

// grow lowers minReach[p] to what v and minReach[v] offer, counts p in
// reach where an entry leaves noReach, judges the newly reachable closed
// targets, and reports whether anything dropped.
func (inc *Incremental) grow(p, v int32) bool {
	inc.growVisits++
	n := inc.n
	dst, src := inc.minReach[int(p)*n:][:n], inc.minReach[int(v)*n:][:n]
	pProc, pIdx := int(inc.nodeProc[p]), int(inc.nodeIndex[p])
	vProc, vIdx := int(inc.nodeProc[v]), inc.nodeIndex[v]
	changed := false
	for k, m := range src {
		if k == vProc {
			m = min(m, vIdx)
		}
		old := dst[k]
		if m >= old {
			continue
		}
		dst[k] = m
		changed = true
		if old == noReach {
			inc.reach[pProc*n+k]++
		}
		// New closed targets are C_{k,m} up to the old bound; recorded
		// vectors are non-decreasing along the chain, so the untrackable
		// ones are a prefix — one compare on RDT traffic.
		col, end := inc.ids[k], min(int(old), inc.nextIndex[k])
		for y := int(m); y < end && inc.vec(col[y])[pProc] < pIdx; y++ {
			inc.violate(pProc, pIdx, k, y)
		}
	}
	return changed
}

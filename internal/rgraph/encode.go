package rgraph

import (
	"fmt"
	"sort"

	"github.com/rdt-go/rdt/internal/binenc"
	"github.com/rdt-go/rdt/internal/model"
	"github.com/rdt-go/rdt/internal/vclock"
)

// Deterministic binary state codec for Incremental. No served session
// stores it — a session's durable form is its WAL, replayed on load —
// so outside this package's tests its caller is the benchmark's
// snapshot rung. AppendBinary emits only the
// primitive state — running vectors, in-flight stamps, interval
// bookkeeping, node table, and the R-graph edge list (direct
// predecessors in insertion order). The closure vectors (minReach), the
// reach counters and the violation accounting are derived state and are
// not stored: DecodeIncremental re-inserts the edges through addEdge,
// which lowers the vectors back to where they were and, because every
// node's taken flag and recorded vector are restored first, re-judges
// every untrackable pair exactly once, at about the cost the original
// insertions had. So a corrupt image cannot plant a closure or a count
// that disagrees with its edges, and a decoded checker is behaviorally
// indistinguishable from one that consumed the original event stream.

var incMagic = []byte("RDTINCR1")

const (
	// maxDecodeProcs and maxDecodeNodes bound the allocations a corrupt
	// snapshot can request.
	maxDecodeProcs = 1 << 20
	maxDecodeNodes = 1 << 24
	// maxDecodeCount bounds the message counter, which a corrupt
	// snapshot could otherwise park one Send short of wrapping negative
	// (AppendInt panics on a negative).
	maxDecodeCount = 1 << 56
)

// AppendBinary appends the checker's complete state to buf and returns
// the extended slice. Maps are emitted in sorted key order, so equal
// states encode to equal bytes.
func (inc *Incremental) AppendBinary(buf []byte) []byte {
	buf = append(buf, incMagic...)
	buf = binenc.AppendInt(buf, inc.n)
	buf = binenc.AppendBool(buf, inc.sealed)
	for i := 0; i < inc.n; i++ {
		buf = appendVec(buf, inc.cur[i])
	}
	buf = binenc.AppendInt(buf, inc.nextMsg)
	handles := make([]int, 0, len(inc.flight))
	for h := range inc.flight {
		handles = append(handles, h)
	}
	sort.Ints(handles)
	buf = binenc.AppendInt(buf, len(handles))
	for _, h := range handles {
		pe := inc.flight[h]
		buf = binenc.AppendInt(buf, h)
		buf = binenc.AppendInt(buf, int(pe.from))
		buf = binenc.AppendInt(buf, int(pe.to))
		buf = binenc.AppendInt(buf, pe.sendInterval)
		buf = appendVec(buf, inc.stamp(pe.slot))
	}
	for i := 0; i < inc.n; i++ {
		buf = binenc.AppendInt(buf, inc.nextIndex[i])
		buf = binenc.AppendInt(buf, inc.events[i])
	}
	buf = binenc.AppendInt(buf, len(inc.nodeProc))
	for v := range inc.nodeProc {
		buf = binenc.AppendInt(buf, int(inc.nodeProc[v]))
		buf = binenc.AppendInt(buf, int(inc.nodeIndex[v]))
		buf = binenc.AppendBool(buf, inc.taken[v])
		if inc.taken[v] {
			for _, x := range inc.vec(int32(v)) {
				buf = binenc.AppendInt(buf, x)
			}
		}
	}
	for v := range inc.preds {
		buf = binenc.AppendInt(buf, len(inc.preds[v]))
		for _, p := range inc.preds[v] {
			buf = binenc.AppendInt(buf, int(p))
		}
	}
	return buf
}

func appendVec(buf []byte, v vclock.Vec) []byte {
	for _, x := range v {
		buf = binenc.AppendInt(buf, x)
	}
	return buf
}

// DecodeIncremental reconstructs a checker from AppendBinary output,
// validating the structural invariants the checker's own operations
// maintain (per-process node allocation order, one pending node per
// process, closed prefixes taken) so corrupt snapshot bytes fail
// cleanly instead of producing a checker that panics later.
func DecodeIncremental(data []byte) (*Incremental, error) {
	r := binenc.NewReader(data)
	r.Expect(incMagic)
	n := r.IntMax(maxDecodeProcs)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode checker: %w", err)
	}
	if n < 1 || n > r.Remaining()/n { // the running vectors alone take n*n bytes
		return nil, fmt.Errorf("decode checker: process count %d", n)
	}
	inc := &Incremental{
		n:         n,
		sealed:    r.Bool(),
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
		readInto(r, inc.cur[i])
	}
	inc.nextMsg = r.IntMax(maxDecodeCount)
	flightCount := r.IntMax(r.Remaining() / n) // each entry holds an n-entry stamp
	stamp := make([]int, n)
	for k := 0; k < flightCount && r.Err() == nil; k++ {
		h := r.Int()
		pe := pendingEdge{
			from:         model.ProcID(r.IntMax(n - 1)),
			to:           model.ProcID(r.IntMax(n - 1)),
			sendInterval: r.Int(),
		}
		readInto(r, stamp)
		pe.slot = inc.putStamp(stamp)
		if _, dup := inc.flight[h]; dup {
			return nil, fmt.Errorf("decode checker: duplicate in-flight handle %d", h)
		}
		inc.flight[h] = pe
	}
	for i := 0; i < n; i++ {
		inc.nextIndex[i] = r.Int()
		inc.events[i] = r.IntMax(2 * inc.nextMsg) // sends + deliveries
	}
	// Deliver indexes the node table with an in-flight entry's send
	// interval, and Send hands out nextMsg and never a self-message.
	for h, pe := range inc.flight {
		if h >= inc.nextMsg || pe.sendInterval > inc.nextIndex[pe.from] || pe.from == pe.to {
			return nil, fmt.Errorf("decode checker: in-flight message %d (interval %d of process %d to %d) was never sent",
				h, pe.sendInterval, pe.from, pe.to)
		}
	}
	numNodes := r.IntMax(maxDecodeNodes)
	for v := 0; v < numNodes && r.Err() == nil; v++ {
		proc := r.IntMax(n - 1)
		index := r.Int()
		taken := r.Bool()
		if r.Err() != nil {
			break
		}
		if index != len(inc.ids[proc]) || index > inc.nextIndex[proc] || taken != (index < inc.nextIndex[proc]) {
			return nil, fmt.Errorf("decode checker: node %d is C{%d,%d} taken=%v; process %d has %d nodes so far and its open interval is %d",
				v, proc, index, taken, proc, len(inc.ids[proc]), inc.nextIndex[proc])
		}
		nv := inc.newNode(model.ProcID(proc), index)
		if taken {
			inc.taken[nv] = true
			readInto(r, inc.vec(nv))
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode checker: %w", err)
	}
	for i := 0; i < n; i++ {
		if len(inc.ids[i]) != inc.nextIndex[i]+1 {
			return nil, fmt.Errorf("decode checker: process %d has %d nodes, want %d",
				i, len(inc.ids[i]), inc.nextIndex[i]+1)
		}
	}
	// Re-inserting the edges rebuilds the closure; with every taken flag
	// and recorded vector already in place, grow convicts each
	// untrackable pair exactly once, restoring the violation count and
	// first violation. No callback is registered yet, so decoding is
	// silent.
	for v := 0; v < numNodes && r.Err() == nil; v++ {
		degree := r.IntMax(maxDecodeNodes)
		for k := 0; k < degree && r.Err() == nil; k++ {
			p := r.IntMax(numNodes - 1)
			if p == v {
				return nil, fmt.Errorf("decode checker: node %d has a self edge", v)
			}
			inc.addEdge(int32(p), int32(v))
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("decode checker: %w", err)
	}
	return inc, nil
}

func readInto(r *binenc.Reader, v []int) {
	for i := range v {
		v[i] = r.Int()
	}
}

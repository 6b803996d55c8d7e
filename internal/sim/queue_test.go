package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// heapItem and oracleHeap are the event queue as it was before the
// pointer-free heap: container/heap over pointers, ordered by (at, seq).
// They are the oracle of TestEventQueueMatchesHeapOracle.
type heapItem struct {
	at  float64
	seq int64
	id  int
}

type oracleHeap []*heapItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].seq < h[b].seq
}
func (h oracleHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*heapItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	item := old[len(old)-1]
	*h = old[:len(old)-1]
	return item
}

// TestEventQueueMatchesHeapOracle pushes and pops the same random
// schedule, full of time ties, through the queue and the oracle: every pop
// must return the same event at the same time. One queue serves every
// trial, so reset and slot reuse are covered too.
func TestEventQueueMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var q eventQueue
	for trial := 0; trial < 200; trial++ {
		q.reset()
		var o oracleHeap
		var seq int64
		now, next := 0.0, 0
		pop := func() {
			at, item := q.pop()
			want := heap.Pop(&o).(*heapItem)
			if at != want.at || item.handle != want.id {
				t.Fatalf("trial %d: popped event %d at %v, oracle event %d at %v", trial, item.handle, at, want.id, want.at)
			}
			now = at
		}
		for step := 0; step < 400; step++ {
			if q.len() != o.Len() {
				t.Fatalf("trial %d: queue holds %d events, oracle %d", trial, q.len(), o.Len())
			}
			if q.len() > 0 && rng.Intn(5) < 2 {
				pop()
				continue
			}
			// Few distinct times, so most pushes tie with a pending event.
			at := now + float64(rng.Intn(4))*0.25
			item := q.push(at)
			item.kind, item.handle = itemWake, next
			seq++
			heap.Push(&o, &heapItem{at: at, seq: seq, id: next})
			next++
		}
		for q.len() > 0 {
			pop()
		}
	}
}

package sim

// itemKind selects the action of a scheduled event. Every kind is typed,
// so scheduling an event allocates nothing.
type itemKind int8

const (
	itemArrive itemKind = iota + 1 // the message in slot handle reaches process to
	itemBasic                      // a basic-checkpoint attempt of process from
	itemWake                       // the workload's OnWake(from, handle)
)

// eventItem is the action of one scheduled event.
type eventItem struct {
	kind             itemKind
	handle, from, to int // handle is the message's in-flight slot, or the tag of a wake-up
	payload          any
}

// eventKey orders the queue: by time, then by scheduling order, so a run
// is deterministic. slot locates the event's item in the slab.
type eventKey struct {
	at   float64
	seq  int64
	slot int32
}

func (k eventKey) before(o eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventQueue is a binary min-heap of keys over a slab of items. The heap
// holds no pointers, so sifting it costs no write barriers, and slab slots
// are recycled through a free list, so a run allocates only while its
// number of pending events grows. Items are filled and read in place; a
// free slot may keep a dead payload until it is reused, and reset drops
// them all.
type eventQueue struct {
	heap  []eventKey
	items []eventItem
	free  []int32
	seq   int64
}

// reset empties the queue for a new run, keeping its buffers.
func (q *eventQueue) reset() {
	clear(q.items)
	q.heap, q.items, q.free, q.seq = q.heap[:0], q.items[:0], q.free[:0], 0
}

func (q *eventQueue) len() int { return len(q.heap) }

// push schedules an event at time at and returns its item for the caller
// to fill in. Only the fields its kind reads need to be set. The pointer
// is valid until the next push.
func (q *eventQueue) push(at float64) *eventItem {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.items))
		q.items = append(q.items, eventItem{})
	}
	q.seq++
	k := eventKey{at: at, seq: q.seq, slot: slot}
	h := append(q.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	q.heap = h
	return &q.items[slot]
}

// pop removes the earliest event and returns its time and item. The
// item's slot is free again, so the pointer is valid only until the next
// push: read what the event needs before scheduling new ones.
func (q *eventQueue) pop() (float64, *eventItem) {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.heap = h
	q.free = append(q.free, top.slot)
	return top.at, &q.items[top.slot]
}

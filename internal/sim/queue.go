package sim

import "math/bits"

// wheelSize is the span of the queue's near-future wheel, in cycles. It
// is a power of two chosen from the workloads' delay histogram: PLUS's
// costs are small fixed cycle counts (the 24-cycle round trip, 4 cycles
// per hop, the Table 3-1 delayed-op costs), so over 99 % of the events
// SSSP and beam search schedule land fewer than 128 cycles ahead, and
// over 90 % of the record store's fewer than 512.
const (
	wheelSize = 512
	wheelMask = wheelSize - 1
)

// queue holds an engine's pending events in (at, lane, seq) order. An
// event due less than wheelSize cycles after now goes into the wheel:
// one slot per cycle, each slot a list of nodes kept sorted by (lane,
// seq), with an occupancy bitmap to find the next busy slot. Every
// wheel event satisfies now ≤ at < now+wheelSize, so one slot only ever
// holds one cycle's events. Events further ahead wait in overflow, a
// binary heap; pop takes the earlier of the two heads. Both orders come
// from one function, before, so the queue pops exactly the sequence a
// single heap would.
type queue struct {
	slots [wheelSize]slot
	busy  [wheelSize / 64]uint64
	// nodes is the pool behind every slot list, so scheduling allocates
	// nothing once it has grown to working size. nodes[0] is the nil
	// sentinel; free heads the list of recycled nodes.
	nodes []node
	free  int32
	// n counts the wheel's events; first is the earliest one's time,
	// valid while n > 0.
	n     int
	first Cycles
	// overflow is a binary min-heap of the events at or beyond the
	// wheel's span when they were pushed.
	overflow []event
}

// slot is one cycle's list of wheel nodes, head first.
type slot struct{ head, tail int32 }

// node is one wheel entry; next links it within its slot, or within
// the free list once recycled.
type node struct {
	ev   event
	next int32
}

func newQueue() queue {
	return queue{nodes: make([]node, 1)}
}

// before orders events by (at, lane, seq). (lane, seq) is unique, so
// the order is total and the queue pops the same deterministic sequence
// regardless of insertion order, which is what lets barrier injection
// merge shard queues without a serialization step.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// len returns the number of pending events.
func (q *queue) len() int { return q.n + len(q.overflow) }

// push enqueues ev. No pending event lies before now, and now never
// moves backward between calls; the engine's past-schedule checks keep
// ev.at ≥ now.
func (q *queue) push(ev event, now Cycles) {
	if ev.at-now >= wheelSize {
		q.overflow = append(q.overflow, ev)
		q.siftUp(len(q.overflow) - 1)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{})
	}
	nd := &q.nodes[i]
	nd.ev = ev
	s := &q.slots[ev.at&wheelMask]
	switch {
	case s.head == 0:
		nd.next = 0
		s.head, s.tail = i, i
		q.busy[ev.at&wheelMask>>6] |= 1 << (ev.at & 63)
		if q.n == 0 || ev.at < q.first {
			q.first = ev.at
		}
	case q.nodes[s.tail].ev.before(&nd.ev):
		nd.next = 0
		q.nodes[s.tail].next = i
		s.tail = i
	case nd.ev.before(&q.nodes[s.head].ev):
		nd.next = s.head
		s.head = i
	default:
		p := s.head
		for q.nodes[q.nodes[p].next].ev.before(&nd.ev) {
			p = q.nodes[p].next
		}
		nd.next = q.nodes[p].next
		q.nodes[p].next = i
	}
	q.n++
}

// peek returns the earliest pending event, or nil when there is none.
// The pointer is valid until the next push or pop.
func (q *queue) peek() *event {
	var w *event
	if q.n > 0 {
		w = &q.nodes[q.slots[q.first&wheelMask].head].ev
	}
	if len(q.overflow) > 0 && (w == nil || q.overflow[0].before(w)) {
		return &q.overflow[0]
	}
	return w
}

// pop removes and returns the earliest pending event. The queue must
// not be empty.
func (q *queue) pop() event {
	s := &q.slots[q.first&wheelMask]
	if q.n == 0 || len(q.overflow) > 0 && q.overflow[0].before(&q.nodes[s.head].ev) {
		return q.popOverflow()
	}
	i := s.head
	nd := &q.nodes[i]
	ev := nd.ev
	s.head = nd.next
	nd.ev = event{} // drop sink/data references for the GC
	nd.next = q.free
	q.free = i
	q.n--
	if s.head == 0 {
		q.busy[q.first&wheelMask>>6] &^= 1 << (q.first & 63)
		if q.n > 0 {
			q.first = q.nextBusy(q.first + 1)
		}
	}
	return ev
}

// nextBusy returns the time of the earliest wheel event, given that
// every one lies in [from, from+wheelSize) and at least one exists:
// the first busy slot at or after from's, wrapping around the wheel.
func (q *queue) nextBusy(from Cycles) Cycles {
	p := from & wheelMask
	w := p >> 6
	word := q.busy[w] &^ (1<<(p&63) - 1)
	for word == 0 {
		w = (w + 1) % Cycles(len(q.busy))
		word = q.busy[w]
	}
	busy := w<<6 | Cycles(bits.TrailingZeros64(word))
	return from + (busy-p)&wheelMask
}

func (q *queue) popOverflow() event {
	h := q.overflow
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop sink/data references for the GC
	q.overflow = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

func (q *queue) siftUp(i int) {
	h := q.overflow
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *queue) siftDown(i int) {
	h := q.overflow
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

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

// queue holds an engine's pending events in (at, tie) order, tie being
// the packed (lane, seq) word (tieOf). An event due less than
// wheelSize cycles after now goes into the wheel: one slot per cycle,
// each slot a list of nodes kept sorted by tie, with an occupancy
// bitmap to find the next busy slot. Every wheel event satisfies
// now ≤ at < now+wheelSize, so one slot only ever holds one cycle's
// events and a node needs no time of its own. Events further ahead
// wait in overflow, a binary heap; head picks the earlier of the two
// heads. Both orders compare (at, tie), so the queue pops exactly the
// sequence a single heap would.
//
// The engine dispatches in two steps: head locates the earliest event
// as a handle, and take removes it and hands back its fields, so a
// dispatch looks the head up once and copies no event around.
type queue struct {
	slots [wheelSize]slot
	busy  [wheelSize / 64]uint64
	// links and pays are the pool behind every slot list, one entry of
	// each per node, so scheduling allocates nothing once they have
	// grown to working size. They are split by use: a push's walk along
	// its slot reads only links, while a node's payload is written once
	// by push and read once by take. Index 0 is the nil sentinel; free
	// heads the list of recycled nodes.
	links []link
	pays  []payload
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

// link is a wheel node's ordering half: its tie key and the next node
// in its slot, or in the free list once recycled. The event's kind
// rides in what would otherwise be padding, which keeps a payload at
// 32 bytes, two to a cache line.
type link struct {
	tie  uint64
	next int32
	kind int32
}

// payload is a wheel node's references, apart so that the walk's
// array holds no pointers.
type payload struct {
	sink EventSink
	data any
}

func newQueue() queue {
	return queue{links: make([]link, 1), pays: make([]payload, 1)}
}

// before orders events by (at, tie). tie is unique, so the order is
// total and the queue pops the same deterministic sequence regardless
// of insertion order, which is what lets barrier injection merge shard
// queues without a serialization step.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.tie < b.tie
}

// push enqueues an event. No pending event lies before now, and now
// never moves backward between calls; the engine's past-schedule
// checks keep at ≥ now.
func (q *queue) push(at Cycles, tie uint64, sink EventSink, kind int32, data any, now Cycles) {
	if at-now >= wheelSize {
		q.overflow = append(q.overflow, event{at: at, tie: tie, kind: kind, sink: sink, data: data})
		q.siftUp(len(q.overflow) - 1)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.links[i].next
	} else {
		i = int32(len(q.links))
		q.links = append(q.links, link{})
		q.pays = append(q.pays, payload{})
	}
	// Field by field: a composite literal is built on the stack and
	// copied in, and the copy's wide loads stall on its narrow stores.
	p := &q.pays[i]
	p.sink, p.data = sink, data
	nd := &q.links[i]
	nd.tie, nd.kind = tie, kind
	s := &q.slots[at&wheelMask]
	switch {
	case s.head == 0:
		nd.next = 0
		s.head, s.tail = i, i
		q.busy[at&wheelMask>>6] |= 1 << (at & 63)
		if q.n == 0 || at < q.first {
			q.first = at
		}
	case q.links[s.tail].tie < tie:
		nd.next = 0
		q.links[s.tail].next = i
		s.tail = i
	case tie < q.links[s.head].tie:
		nd.next = s.head
		s.head = i
	default:
		// Some node after the head sorts after tie (the tail does), so
		// the walk never reaches the sentinel.
		l := &q.links[s.head]
		for q.links[l.next].tie < tie {
			l = &q.links[l.next]
		}
		nd.next = l.next
		l.next = i
	}
	q.n++
}

// head returns the time of the earliest pending event and a handle to
// it for sink and take: a wheel node (h > 0) or the overflow heap's
// root (h == 0). h < 0 means the queue is empty.
func (q *queue) head() (at Cycles, h int32) {
	if len(q.overflow) == 0 {
		if q.n == 0 {
			return 0, -1
		}
		return q.first, q.slots[q.first&wheelMask].head
	}
	o := &q.overflow[0]
	if q.n > 0 {
		h = q.slots[q.first&wheelMask].head
		if q.first < o.at || q.first == o.at && q.links[h].tie < o.tie {
			return q.first, h
		}
	}
	return o.at, 0
}

// take removes the event at handle h, due at at (both from head), and
// returns its fields.
func (q *queue) take(at Cycles, h int32) (tie uint64, sink EventSink, kind int32, data any) {
	if h == 0 {
		return q.popOverflow()
	}
	p := &q.pays[h]
	sink, data = p.sink, p.data
	p.sink, p.data = nil, nil // drop the references for the GC
	nd := &q.links[h]
	tie, kind = nd.tie, nd.kind
	s := &q.slots[at&wheelMask]
	s.head = nd.next
	nd.next = q.free
	q.free = h
	q.n--
	if s.head == 0 {
		q.busy[at&wheelMask>>6] &^= 1 << (at & 63)
		if q.n > 0 {
			q.first = q.nextBusy(at + 1)
		}
	}
	return tie, sink, kind, data
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

func (q *queue) popOverflow() (tie uint64, sink EventSink, kind int32, data any) {
	h := q.overflow
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop sink/data references for the GC
	q.overflow = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev.tie, ev.sink, ev.kind, ev.data
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

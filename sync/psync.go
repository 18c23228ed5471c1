// Package psync provides the synchronization constructs of the PLUS
// paper, built on the machine's delayed operations exactly as Section
// 3 describes: the queue lock of Table 3-2 (fetch-and-add + hardware
// queue/dequeue + sleep/wakeup), a test-and-test-and-set spin lock, a
// sense-reversing barrier, a counting semaphore, and the eager
// element allocator of §3.3 that hides fetch-and-add latency by
// software pipelining.
//
// Hardware synchronization primitives "should not be used directly by
// users and should be either encapsulated in higher level constructs
// or directly generated and optimized by a compiler" (§2.3) — this
// package is that encapsulation.
package psync

import (
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/timing"
)

// spinPause is the computation charged per polling iteration while
// spinning (the re-test loop of test-and-test-and-set and friends).
const spinPause sim.Cycles = 20

// QueueLock is the lock of Table 3-2: a fetch-and-add count of holders
// plus waiters, and a hardware queue of sleeping waiter thread IDs.
// Uncontended acquisition costs one delayed fetch-and-add; contended
// waiters enqueue themselves and sleep rather than spinning.
type QueueLock struct {
	m    *core.Machine
	lock memory.VAddr // holder+waiter count, 0 = free
	qp   memory.VAddr // tail control word (offset within queue page)
	dqp  memory.VAddr // head control word
}

// NewQueueLock allocates a queue lock homed on the given node: one
// page for the lock word and one page holding the waiter queue with
// its control words above the hardware wrap range.
func NewQueueLock(m *core.Machine, home mesh.NodeID) *QueueLock {
	base := m.Alloc(home, 2)
	qpage := base + memory.VAddr(memory.PageWords)
	maxQ := memory.VAddr(timing.MaxQueueSize)
	return &QueueLock{
		m:    m,
		lock: base,
		qp:   qpage + maxQ,
		dqp:  qpage + maxQ + 1,
	}
}

// Replicate places copies of the lock's pages on the given nodes so
// their fadd traffic observes a closer copy-list (the lock word is
// still serialized at the master).
func (l *QueueLock) Replicate(nodes ...mesh.NodeID) {
	l.m.Replicate(l.lock, nodes...)
	l.m.Replicate(l.qp, nodes...)
}

// Lock acquires the lock, sleeping if it is held — the LOCK sequence
// of Table 3-2, verbatim:
//
//	if (fadd(lock, 1) != 0) {
//	    while (queue(QP, myID) & 0x80000000);  /* spin if full */
//	    wait();
//	}
func (l *QueueLock) Lock(t *proc.Thread) {
	if t.FaddSync(l.lock, 1) != 0 {
		for t.EnqueueSync(l.qp, memory.Word(t.ID()))&memory.TopBit != 0 {
			t.Compute(spinPause) // queue full, unlikely
		}
		t.Sleep() // until the holder hands the lock over
	}
}

// Unlock releases the lock — the UNLOCK sequence of Table 3-2. A
// fence first makes the critical section's writes globally visible
// before ownership transfers (the explicit fence placement of §3.1:
// none is needed before acquiring, one is needed before releasing).
//
//	if (fadd(lock, -1) > 1) {   /* someone is waiting */
//	    while (!((k = dequeue(DQP)) & 0x80000000)); /* loop if empty */
//	    wake_up(k & 0x7fffffff);
//	}
func (l *QueueLock) Unlock(t *proc.Thread) {
	t.Fence()
	if int32(t.FaddSync(l.lock, -1)) > 1 {
		var k memory.Word
		for {
			k = t.DequeueSync(l.dqp)
			if k&memory.TopBit != 0 {
				break
			}
			// A waiter has incremented the count but not yet enqueued
			// itself; loop until its ID appears.
			t.Compute(spinPause)
		}
		t.Wake(l.m.Threads()[int(k&^memory.TopBit)])
	}
}

// SpinLock is a test-and-test-and-set lock on a fetch-and-set word:
// the construct "invented to minimize the overhead caused by the
// interference between the coherence protocol and the synchronization
// operations" (§3) and the baseline the queue lock improves on.
type SpinLock struct {
	w memory.VAddr
}

// NewSpinLock allocates a spin lock homed on the given node.
func NewSpinLock(m *core.Machine, home mesh.NodeID) *SpinLock {
	return &SpinLock{w: m.Alloc(home, 1)}
}

// Lock spins until the fetch-and-set wins the top bit.
func (l *SpinLock) Lock(t *proc.Thread) {
	for {
		if t.FetchSetSync(l.w)&memory.TopBit == 0 {
			return
		}
		// Test loop on ordinary reads (which hit a local copy when the
		// page is replicated) before retrying the RMW. Sync-annotated:
		// the reads poll a word released by Unlock's Fence+WriteSync.
		for t.ReadSync(l.w)&memory.TopBit != 0 {
			t.Compute(spinPause)
		}
	}
}

// Unlock fences and clears the lock word. The clearing write is
// sync-annotated: the fence ahead of it makes it a release (§3.1), and
// the annotation tells the race detector the lock word is a
// synchronization word, not shared data.
func (l *SpinLock) Unlock(t *proc.Thread) {
	t.Fence()
	t.WriteSync(l.w, 0)
}

// Addr returns the lock word's address (for replication).
func (l *SpinLock) Addr() memory.VAddr { return l.w }

// Barrier is a sense-reversing barrier over a fetch-and-add counter
// and a generation word.
type Barrier struct {
	n   int
	ctr memory.VAddr
	gen memory.VAddr
}

// NewBarrier allocates a barrier for n participants homed on the
// given node. Replicating the generation page on the spinning nodes
// turns the wait loop into local reads.
func NewBarrier(m *core.Machine, home mesh.NodeID, n int) *Barrier {
	base := m.Alloc(home, 1)
	return &Barrier{n: n, ctr: base, gen: base + 1}
}

// GenAddr returns the generation word's address (for replication).
func (b *Barrier) GenAddr() memory.VAddr { return b.gen }

// Wait blocks until all n participants have arrived.
func (b *Barrier) Wait(t *proc.Thread) {
	g := t.ReadSync(b.gen)
	if int(t.FaddSync(b.ctr, 1)) == b.n-1 {
		// Last arrival: reset the counter, make it visible, then flip
		// the generation to release everyone. The generation write is
		// the release (fence-preceded), so it is sync-annotated, as are
		// the spin reads polling it.
		t.XchngSync(b.ctr, 0)
		t.Fence()
		t.WriteSync(b.gen, g+1)
		return
	}
	for t.ReadSync(b.gen) == g {
		t.Compute(spinPause)
	}
}

// Semaphore is a counting semaphore with sleeping waiters, the P and V
// operations the paper uses as its canonical synchronization pair.
type Semaphore struct {
	m   *core.Machine
	cnt memory.VAddr // signed count; negative = waiters
	qp  memory.VAddr
	dqp memory.VAddr
}

// NewSemaphore allocates a semaphore with the given initial count,
// homed on the given node.
func NewSemaphore(m *core.Machine, home mesh.NodeID, initial int32) *Semaphore {
	base := m.Alloc(home, 2)
	qpage := base + memory.VAddr(memory.PageWords)
	maxQ := memory.VAddr(timing.MaxQueueSize)
	s := &Semaphore{m: m, cnt: base, qp: qpage + maxQ, dqp: qpage + maxQ + 1}
	m.Poke(s.cnt, memory.Word(uint32(initial)))
	return s
}

// P decrements the count, sleeping when it goes negative. Per §3.1
// "there is usually no need to issue a fence before a P operation",
// and none is issued.
func (s *Semaphore) P(t *proc.Thread) {
	if int32(t.FaddSync(s.cnt, -1)) <= 0 {
		for t.EnqueueSync(s.qp, memory.Word(t.ID()))&memory.TopBit != 0 {
			t.Compute(spinPause)
		}
		t.Sleep()
	}
}

// V increments the count and wakes one sleeping waiter if any. The
// fence publishes the producer's writes before the waiter runs.
func (s *Semaphore) V(t *proc.Thread) {
	t.Fence()
	if int32(t.FaddSync(s.cnt, 1)) < 0 {
		var k memory.Word
		for {
			k = t.DequeueSync(s.dqp)
			if k&memory.TopBit != 0 {
				break
			}
			t.Compute(spinPause)
		}
		t.Wake(s.m.Threads()[int(k&^memory.TopBit)])
	}
}

// EagerIndex hands out consecutive indices from a shared
// fetch-and-add counter while hiding its latency: each per-thread
// session keeps one request permanently in flight, so Next usually
// costs only a result read. This is the §3.3 software-pipelined
// "pointer to a free element" primitive ("the first time it is
// called, it retrieves two elements").
type EagerIndex struct {
	ctr memory.VAddr
}

// NewEagerIndex allocates the shared counter homed on the given node.
func NewEagerIndex(m *core.Machine, home mesh.NodeID) *EagerIndex {
	return &EagerIndex{ctr: m.Alloc(home, 1)}
}

// Session starts a per-thread allocation session.
func (e *EagerIndex) Session() *EagerSession {
	return &EagerSession{e: e}
}

// EagerSession is one thread's pipelined view of an EagerIndex. Not
// shareable between threads.
type EagerSession struct {
	e       *EagerIndex
	pending proc.Handle
	started bool
}

// Next returns the next index. The first call issues two
// fetch-and-adds (retrieving two elements); every later call verifies
// the in-flight one and eagerly issues the next.
func (s *EagerSession) Next(t *proc.Thread) memory.Word {
	if !s.started {
		s.pending = t.Fadd(s.e.ctr, 1)
		s.started = true
	}
	v := t.Verify(s.pending)
	s.pending = t.Fadd(s.e.ctr, 1)
	return v
}

// Close retires the in-flight request, freeing its delayed-operations
// cache slot. The prefetched index is discarded (the cost of eager
// allocation).
func (s *EagerSession) Close(t *proc.Thread) {
	if s.started {
		t.Verify(s.pending)
		s.started = false
	}
}

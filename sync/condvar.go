package psync

import (
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/timing"
)

// Cond is a condition variable over a QueueLock: waiters enqueue their
// thread IDs in a hardware queue and sleep; Signal and Broadcast
// dequeue and wake them — the same sleep/wakeup machinery as the
// Table 3-2 lock, composed one level up.
type Cond struct {
	m   *core.Machine
	qp  memory.VAddr // waiter-queue tail control word
	dqp memory.VAddr // head control word
	n   memory.VAddr // waiter count
}

// NewCond allocates a condition variable homed on the given node. It
// pairs with any lock the caller holds around Wait/Signal.
func NewCond(m *core.Machine, home mesh.NodeID) *Cond {
	base := m.Alloc(home, 2)
	qpage := base + memory.VAddr(memory.PageWords)
	maxQ := memory.VAddr(timing.MaxQueueSize)
	return &Cond{m: m, n: base, qp: qpage + maxQ, dqp: qpage + maxQ + 1}
}

// Wait atomically releases the lock, sleeps until a Signal/Broadcast
// wakes this thread, and reacquires the lock before returning. The
// caller must hold l.
func (c *Cond) Wait(t *proc.Thread, l *QueueLock) {
	// Register as a waiter before releasing the lock so a signal
	// between release and sleep cannot be lost: the count is verified
	// (applied at its master) first, then the ID enqueued; Signal
	// dequeues only after seeing the count, and a wake that beats the
	// Sleep is absorbed by the wake-pending latch.
	t.Verify(t.Fadd(c.n, 1))
	for t.EnqueueSync(c.qp, memory.Word(t.ID()))&memory.TopBit != 0 {
		t.Compute(spinPause)
	}
	l.Unlock(t)
	t.Sleep()
	l.Lock(t)
}

// Signal wakes one waiter, if any. The caller should hold the
// associated lock (as with any condition variable, signalling without
// it is legal but racy in the application's own terms).
func (c *Cond) Signal(t *proc.Thread) {
	if int32(t.FaddSync(c.n, -1)) <= 0 {
		t.Verify(t.Fadd(c.n, 1)) // nobody was waiting: undo
		return
	}
	c.wakeOne(t)
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast(t *proc.Thread) {
	for {
		if int32(t.FaddSync(c.n, -1)) <= 0 {
			t.Verify(t.Fadd(c.n, 1))
			return
		}
		c.wakeOne(t)
	}
}

// wakeOne pops one registered waiter (looping across the enqueue race
// window exactly like Table 3-2's UNLOCK) and wakes it.
func (c *Cond) wakeOne(t *proc.Thread) {
	var k memory.Word
	for {
		k = t.DequeueSync(c.dqp)
		if k&memory.TopBit != 0 {
			break
		}
		t.Compute(spinPause)
	}
	t.Wake(c.m.Threads()[int(k&^memory.TopBit)])
}

// Once runs an initialization exactly once across all threads: the
// winner of a fetch-and-set executes f and publishes with a fence and
// a done flag; losers spin until the flag is visible.
type Once struct {
	gate memory.VAddr
	done memory.VAddr
}

// NewOnce allocates a once-gate homed on the given node.
func NewOnce(m *core.Machine, home mesh.NodeID) *Once {
	base := m.Alloc(home, 1)
	return &Once{gate: base, done: base + 1}
}

// Do executes f exactly once machine-wide; every caller returns only
// after f's effects are globally visible.
func (o *Once) Do(t *proc.Thread, f func(*proc.Thread)) {
	if t.FetchSetSync(o.gate)&memory.TopBit == 0 {
		f(t)
		t.Fence() // publish f's writes before the flag
		t.Write(o.done, 1)
		t.Fence()
		return
	}
	for t.Read(o.done) == 0 {
		t.Compute(spinPause)
	}
}

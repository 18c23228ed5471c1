package psync

import (
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/timing"
)

// TestQueueLockWrapsHardwareQueue pushes far more waiter enqueues
// through the lock than the hardware queue has slots, so the tail and
// head offsets wrap "(modulo maximum queue size)" many times — the
// Table 3-2 code must keep working across wrap boundaries.
func TestQueueLockWrapsHardwareQueue(t *testing.T) {
	m := newMachine(t, 2, 2)
	maxQ := timing.MaxQueueSize
	l := NewQueueLock(m, 0)
	x := m.Alloc(1, 1)
	// Rounds of contended acquisitions; with 4 threads, roughly 3 of 4
	// acquisitions enqueue a waiter.
	rounds := maxQ/2 + 40 // ≈ 3/4 * 4 * rounds > maxQ enqueues
	for n := 0; n < 4; n++ {
		m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
			for i := 0; i < rounds; i++ {
				l.Lock(th)
				v := th.Read(x)
				th.Write(x, v+1)
				l.Unlock(th)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(x); got != memory.Word(uint32(4*rounds)) {
		t.Fatalf("counter = %d, want %d", got, 4*rounds)
	}
}

// TestSemaphoreWraps does the same for the semaphore's waiter queue.
func TestSemaphoreWraps(t *testing.T) {
	m := newMachine(t, 2, 2)
	maxQ := timing.MaxQueueSize
	s := NewSemaphore(m, 0, 1) // binary semaphore: heavy queueing
	x := m.Alloc(1, 1)
	rounds := maxQ/2 + 30
	for n := 0; n < 4; n++ {
		m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
			for i := 0; i < rounds; i++ {
				s.P(th)
				v := th.Read(x)
				th.Write(x, v+1)
				s.V(th)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(x); got != memory.Word(uint32(4*rounds)) {
		t.Fatalf("counter = %d, want %d", got, 4*rounds)
	}
}

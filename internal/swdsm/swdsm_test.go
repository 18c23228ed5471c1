package swdsm

import (
	"testing"

	"plus/internal/memory"
)

func TestLocalHitsAreCheap(t *testing.T) {
	m := New(Config{MeshW: 2, MeshH: 1})
	m.Alloc(0, 0)
	m.Write(0, 5, 42)
	if got := m.Read(0, 5); got != 42 {
		t.Fatalf("read = %d", got)
	}
	if m.ReadFaults+m.WriteFaults != 0 {
		t.Fatal("owner faulted on its own page")
	}
	if m.Elapsed() != 2*LocalAccess {
		t.Fatalf("elapsed = %d", m.Elapsed())
	}
}

func TestReadFaultShipsPage(t *testing.T) {
	cfg := Config{MeshW: 2, MeshH: 1}
	m := New(cfg)
	m.Alloc(0, 0)
	m.Write(0, 3, 9)
	if got := m.Read(1, 3); got != 9 {
		t.Fatalf("remote read = %d", got)
	}
	if m.ReadFaults != 1 || m.PageTransfers != 1 {
		t.Fatalf("faults=%d transfers=%d", m.ReadFaults, m.PageTransfers)
	}
	// Node 1's clock carries the big software overhead.
	if m.Elapsed() < SoftwareFault {
		t.Fatalf("elapsed %d below the software fault cost", m.Elapsed())
	}
	// Second read: hit.
	before := m.ReadFaults
	m.Read(1, 4)
	if m.ReadFaults != before {
		t.Fatal("read hit faulted")
	}
}

func TestWriteFaultInvalidatesReaders(t *testing.T) {
	m := New(Config{MeshW: 4, MeshH: 1})
	m.Alloc(0, 0)
	m.Write(0, 0, 1)
	m.Read(1, 0) // nodes 1, 2 become readers
	m.Read(2, 0)
	m.Write(3, 0, 7) // must invalidate 0, 1, 2 and take ownership
	if m.Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
	// Readers lost access: their next read faults again.
	before := m.ReadFaults
	if got := m.Read(1, 0); got != 7 {
		t.Fatalf("reader saw stale %d", got)
	}
	if m.ReadFaults != before+1 {
		t.Fatal("invalidated reader did not fault")
	}
}

func TestWriteWriteMigratesOwnership(t *testing.T) {
	m := New(Config{MeshW: 2, MeshH: 1})
	m.Alloc(0, 0)
	for i := 0; i < 5; i++ {
		m.Write(0, 0, memory.Word(uint32(i)))
		m.Write(1, 0, memory.Word(uint32(100+i)))
	}
	// Ping-pong: every alternation is a write fault with a transfer.
	if m.WriteFaults < 9 {
		t.Fatalf("write faults = %d, expected ping-pong", m.WriteFaults)
	}
	if m.Peek(0) != 104 {
		t.Fatalf("final value = %d", m.Peek(0))
	}
}

func TestSequentialConsistencyOfValues(t *testing.T) {
	// Single-writer protocol: the last writer's value is what every
	// later reader sees, fault or hit.
	m := New(Config{MeshW: 4, MeshH: 1})
	m.Alloc(2, 0)
	m.Write(2, 10, 5)
	if m.Read(0, 10) != 5 || m.Read(1, 10) != 5 {
		t.Fatal("readers diverged")
	}
	m.Write(3, 10, 6)
	if m.Read(0, 10) != 6 || m.Read(2, 10) != 6 {
		t.Fatal("post-invalidate readers saw stale data")
	}
}

func TestDoubleAllocPanics(t *testing.T) {
	m := New(Config{MeshW: 2, MeshH: 1})
	m.Alloc(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double alloc accepted")
		}
	}()
	m.Alloc(1, 0)
}

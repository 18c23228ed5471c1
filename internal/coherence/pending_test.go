package coherence

import (
	"testing"

	"plus/internal/memory"
	"plus/internal/timing"
)

// depthTiming is the default cache depths with a pending-writes cache of
// the given depth.
func depthTiming(depth int) timing.Timing {
	tm := timing.Default()
	tm.MaxPendingWrites = depth
	return tm
}

// TestSameWordPendingBlocksReadUntilLastAck: two pending writes to one
// word keep a read of it blocked through the first ack and release it
// only at the second; a read of another word of the page is not
// blocked at all.
func TestSameWordPendingBlocksReadUntilLastAck(t *testing.T) {
	for _, depth := range []int{2, 8, 16} {
		r := newRigTiming(t, 4, 1, depthTiming(depth))
		frames := r.page(1, 2, 3) // a long chain: acks come back slowly
		w := r.cms[0]
		g := GAddr{1, frames[1], 0}
		w.Write(g, 1, noopAccept)
		w.Write(g, 2, noopAccept)

		// Another word: issued at once (counted as a remote read) and
		// answered while both writes are still pending.
		var otherDone bool
		w.Read(GAddr{1, frames[1], 1}, func(memory.Word) { otherDone = true })
		if n := r.st.Nodes[0].RemoteReads; n != 1 {
			t.Fatalf("depth %d: read of an unwritten word blocked (remote reads %d)", depth, n)
		}

		var readVal memory.Word
		readDone := false
		w.Read(g, func(v memory.Word) { readVal, readDone = v, true })
		if n := r.st.Nodes[0].RemoteReads; n != 1 {
			t.Fatalf("depth %d: read of a pending word issued at once (remote reads %d)", depth, n)
		}
		for w.PendingCount() == 2 {
			if r.eng.RunLimit(1) == 0 {
				t.Fatalf("depth %d: engine drained with both writes pending", depth)
			}
		}
		if !otherDone {
			t.Fatalf("depth %d: read of another word waited for an ack", depth)
		}
		for w.PendingCount() == 1 {
			if readDone || r.st.Nodes[0].RemoteReads != 1 {
				t.Fatalf("depth %d: read released by the first of two acks", depth)
			}
			if r.eng.RunLimit(1) == 0 {
				t.Fatalf("depth %d: engine drained with a write pending", depth)
			}
		}
		if r.st.Nodes[0].RemoteReads != 2 {
			t.Fatalf("depth %d: second ack did not release the read", depth)
		}
		r.eng.Run()
		if !readDone || readVal != 2 {
			t.Fatalf("depth %d: read = %d (done %v), want the second write's value", depth, readVal, readDone)
		}
	}
}

// TestPendingDepthAndFence fills the pending-writes cache at depths 1,
// 8 and 16: exactly depth writes are accepted at once, occupancy never
// exceeds depth, and a fence fires once, when the cache drains.
func TestPendingDepthAndFence(t *testing.T) {
	for _, depth := range []int{1, 8, 16} {
		r := newRigTiming(t, 2, 1, depthTiming(depth))
		frames := r.page(1)
		w := r.cms[0]
		accepted := 0
		for i := 0; i < depth+2; i++ {
			w.Write(GAddr{1, frames[1], uint32(i)}, memory.Word(i), func() { accepted++ })
		}
		if accepted != depth || w.PendingCount() != depth {
			t.Fatalf("depth %d: accepted %d, pending %d", depth, accepted, w.PendingCount())
		}
		fences := 0
		w.Fence(func() {
			fences++
			if w.PendingCount() != 0 || accepted != depth+2 {
				t.Errorf("depth %d: fence fired with %d pending, %d accepted", depth, w.PendingCount(), accepted)
			}
		})
		if fences != 0 {
			t.Fatalf("depth %d: fence fired with writes pending", depth)
		}
		for r.eng.RunLimit(1) == 1 {
			if w.PendingCount() > depth {
				t.Fatalf("depth %d: %d writes pending", depth, w.PendingCount())
			}
		}
		if fences != 1 || w.PendingCount() != 0 {
			t.Fatalf("depth %d: fences %d, pending %d after drain", depth, fences, w.PendingCount())
		}
		w.Fence(func() { fences++ })
		if fences != 2 {
			t.Fatalf("depth %d: fence on an empty cache was not synchronous", depth)
		}
		for i := 0; i < depth+2; i++ {
			if got := r.mems[1].Read(frames[1], uint32(i)); got != memory.Word(i) {
				t.Fatalf("depth %d: word %d = %d", depth, i, got)
			}
		}
	}
}

// noopRead is a package-level read callback for the alloc pins.
func noopRead(memory.Word) {}

// TestTablePathsZeroAlloc pins the frame table, pending-writes cache
// and outstanding-read table on the per-reference path: a local
// write and its ack, and a remote read's round trip, allocate nothing
// once warm.
func TestTablePathsZeroAlloc(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	w := r.cms[0]
	local := GAddr{0, frames[0], 3}
	if avg := testing.AllocsPerRun(100, func() {
		w.Write(local, 7, noopAccept)
		r.eng.Run()
	}); avg != 0 || w.PendingCount() != 0 {
		t.Fatalf("local write+ack allocates %v objects (pending %d), want 0", avg, w.PendingCount())
	}
	remote := GAddr{0, frames[0], 5}
	if avg := testing.AllocsPerRun(100, func() {
		r.cms[1].Read(remote, noopRead)
		r.eng.Run()
	}); avg != 0 {
		t.Fatalf("remote read round trip allocates %v objects, want 0", avg)
	}
}

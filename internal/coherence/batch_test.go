package coherence

import (
	"slices"
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// batchTiming returns the default cache depths with write combining at
// the given depth.
func batchTiming(depth int) timing.Timing {
	tm := timing.Default()
	tm.MaxBatchWrites = depth
	return tm
}

// TestBatchCoalescesWrites drives consecutive same-page writes through
// a depth-4 combine buffer and pins the whole batched message economy:
// two kWriteReq for eight writes, one update per batch per copy, one
// ack per batch, every pending entry retired, every word applied on
// every replica.
func TestBatchCoalescesWrites(t *testing.T) {
	r := newRigTiming(t, 2, 2, batchTiming(4))
	frames := r.page(0, 1, 2) // master on 0, copies on 1 and 2
	w := r.cms[3]             // writer with no local copy: fully remote
	for i := 0; i < 8; i++ {
		g := addrFor(frames, 0, 3, uint32(i))
		w.Write(g, memory.Word(100+i), func() {})
	}
	// Both batches flushed on batch-full; nothing rests in the buffer.
	if n := w.BufferedWrites(); n != 0 {
		t.Fatalf("buffer holds %d words after two full batches", n)
	}
	if r.st.MsgWrite != 2 {
		t.Fatalf("8 writes sent %d write requests, want 2 batches", r.st.MsgWrite)
	}
	r.eng.Run()
	if got := w.PendingCount(); got != 0 {
		t.Fatalf("%d pending writes never retired", got)
	}
	// Each batch: master applies, kUpdate to node 1, kUpdate to node 2,
	// kAck back to node 3.
	if r.st.MsgUpdate != 4 || r.st.MsgAck != 2 {
		t.Fatalf("updates=%d acks=%d, want 4 and 2", r.st.MsgUpdate, r.st.MsgAck)
	}
	if got := r.st.Totals().CoalescedWrites; got != 6 {
		t.Fatalf("coalesced %d words, want 6 (8 writes in 2 batches)", got)
	}
	for _, n := range []mesh.NodeID{0, 1, 2} {
		for i := 0; i < 8; i++ {
			if got := r.mems[n].Read(frames[n], uint32(i)); got != memory.Word(100+i) {
				t.Fatalf("node %d word %d = %d, want %d", n, i, got, 100+i)
			}
		}
	}
	if live := r.net.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live", live)
	}
}

// TestBatchSingleWriteEquivalence pins that with MaxBatchWrites=1 the
// combine buffer flushes every word at once, so each write travels as
// its own request, update and ack (the goldens' byte-identity
// guarantee at the unit level).
func TestBatchSingleWriteEquivalence(t *testing.T) {
	counts := func(depth int) (uint64, uint64, uint64) {
		r := newRigTiming(t, 2, 2, batchTiming(depth))
		frames := r.page(0, 1)
		for i := 0; i < 5; i++ {
			r.cms[3].Write(addrFor(frames, 0, 3, uint32(i)), memory.Word(i), func() {})
		}
		r.cms[3].FlushBatch()
		r.eng.Run()
		return r.st.MsgWrite, r.st.MsgUpdate, r.st.MsgAck
	}
	w1, u1, a1 := counts(1)
	if w1 != 5 || u1 != 5 || a1 != 5 {
		t.Fatalf("depth 1: writes=%d updates=%d acks=%d, want 5/5/5", w1, u1, a1)
	}
	w8, u8, a8 := counts(8)
	if w8 != 1 || u8 != 1 || a8 != 1 {
		t.Fatalf("depth 8: writes=%d updates=%d acks=%d, want 1/1/1", w8, u8, a8)
	}
}

// TestBatchFlushTriggers exercises each flush trigger the protocol
// documents: destination page change, read-as-combine-barrier, fence,
// delayed-operation issue, and explicit flush.
func TestBatchFlushTriggers(t *testing.T) {
	newOpen := func() (*rig, map[mesh.NodeID]memory.PPage) {
		r := newRigTiming(t, 2, 1, batchTiming(8))
		frames := r.page(0, 1)
		r.cms[1].Write(addrFor(frames, 0, 1, 2), 7, func() {})
		if _, _, open := r.cms[1].BatchTarget(); !open {
			t.Fatal("write did not open the combine buffer")
		}
		return r, frames
	}

	// Page change: a write to a different destination flushes.
	r, _ := newOpen()
	other := r.page(1)
	r.cms[1].Write(GAddr{1, other[1], 0}, 9, func() {})
	if node, page, open := r.cms[1].BatchTarget(); !open || node != 1 || page != other[1] {
		t.Fatalf("buffer after page change: open=%v node=%d page=%d", open, node, page)
	}
	if r.st.MsgWrite != 1 {
		t.Fatalf("page change sent %d write requests, want 1", r.st.MsgWrite)
	}

	// Read: any read by the node flushes.
	r, frames := newOpen()
	r.cms[1].Read(addrFor(frames, 0, 1, 5), func(memory.Word) {})
	if _, _, open := r.cms[1].BatchTarget(); open {
		t.Fatal("read did not flush the combine buffer")
	}

	// Fence flushes.
	r, _ = newOpen()
	r.cms[1].Fence(func() {})
	if _, _, open := r.cms[1].BatchTarget(); open {
		t.Fatal("fence did not flush the combine buffer")
	}

	// RMW issue flushes.
	r, frames = newOpen()
	r.cms[1].RMW(OpFadd, addrFor(frames, 0, 1, 9), 1, func(int) {})
	if _, _, open := r.cms[1].BatchTarget(); open {
		t.Fatal("RMW issue did not flush the combine buffer")
	}

	// Explicit flush.
	r, _ = newOpen()
	r.cms[1].FlushBatch()
	if _, _, open := r.cms[1].BatchTarget(); open {
		t.Fatal("FlushBatch left the buffer open")
	}
	r.eng.Run()
	if r.cms[1].PendingCount() != 0 {
		t.Fatal("flushed write never retired")
	}
}

// TestBatchBlocksOnExactWords pins the wait-on-write rule under
// combining: a read of a word resting in the buffer flushes and blocks
// until the batch's ack, while a read of an unwritten word on the same
// page completes at local-read latency.
func TestBatchBlocksOnExactWords(t *testing.T) {
	r := newRigTiming(t, 2, 1, batchTiming(8))
	frames := r.page(0, 1) // master on 0, copy on 1
	w := r.cms[1]
	w.Write(GAddr{1, frames[1], 3}, 33, func() {})

	var cleanAt, dirtyAt sim.Cycles
	var dirtyVal memory.Word
	// The first read flushes the batch; word 6 has no pending write, so
	// it completes locally without waiting for the ack.
	w.Read(GAddr{1, frames[1], 6}, func(memory.Word) { cleanAt = r.eng.Now() })
	w.Read(GAddr{1, frames[1], 3}, func(v memory.Word) { dirtyVal, dirtyAt = v, r.eng.Now() })
	r.eng.Run()
	if dirtyVal != 33 {
		t.Fatalf("read of pending word = %d, want 33", dirtyVal)
	}
	if cleanAt == 0 || dirtyAt == 0 {
		t.Fatal("a read never completed")
	}
	// The dirty word waits for master round trip + ack; the clean word
	// must not.
	if cleanAt >= dirtyAt {
		t.Fatalf("unwritten word (done at %d) blocked as long as the pending word (done at %d)", cleanAt, dirtyAt)
	}
}

// TestBatchPendingFullFlushes pins the liveness trigger: with the
// combine depth above the pending-writes depth, the 9th write finds
// the cache full, flushes the buffered 8 so their acks can drain, and
// completes after retirement. It also demonstrates the strand hazard
// the machine layer guards against: with no processor attached,
// nothing flushes the final lone write until FlushBatch.
func TestBatchPendingFullFlushes(t *testing.T) {
	tm := batchTiming(16) // deeper than MaxPendingWrites=8
	r := newRigTiming(t, 2, 1, tm)
	frames := r.page(0, 1)
	w := r.cms[1]
	for i := 0; i < 9; i++ {
		w.Write(GAddr{1, frames[1], uint32(i)}, memory.Word(i), func() {})
	}
	// Writes 0-7 filled the pending cache without filling the batch;
	// write 8 hit the full cache and forced the flush.
	if r.st.MsgWrite != 1 {
		t.Fatalf("full pending cache sent %d write requests, want 1", r.st.MsgWrite)
	}
	r.eng.Run()
	// The engine drained, but the 9th write (re-issued when an ack
	// freed an entry) rests in the buffer: a strand, visible to the
	// invariant checker.
	if n := w.BufferedWrites(); n != 1 {
		t.Fatalf("expected the re-issued write stranded in the buffer, have %d", n)
	}
	if w.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1 (the buffered word)", w.PendingCount())
	}
	w.FlushBatch()
	r.eng.Run()
	if w.BufferedWrites() != 0 || w.PendingCount() != 0 {
		t.Fatalf("after explicit flush: buffered=%d pending=%d", w.BufferedWrites(), w.PendingCount())
	}
	for i := 0; i < 9; i++ {
		if got := r.mems[0].Read(frames[0], uint32(i)); got != memory.Word(i) {
			t.Fatalf("master word %d = %d", i, got)
		}
	}
}

// noopAccept is a package-level callback so the alloc pin below does
// not count closure allocations against the protocol.
func noopAccept() {}

// TestBatchWriteZeroAlloc pins the combine-buffer hot path: buffering,
// flushing and batch retirement run allocation-free with pooled
// messages (the warm-up run inside AllocsPerRun absorbs one-time slice
// and map growth).
func TestBatchWriteZeroAlloc(t *testing.T) {
	r := newRigTiming(t, 2, 1, batchTiming(4))
	frames := r.page(0, 1)
	w := r.cms[1]
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ { // two full batches, within pending depth
			w.Write(GAddr{1, frames[1], uint32(i)}, 7, noopAccept)
		}
		w.FlushBatch()
		r.eng.Run()
	})
	if avg != 0 {
		t.Fatalf("batched write path allocates %v objects per run, want 0", avg)
	}
}

// TestRetriedWriteAcceptedBeforeIssue: a write that waited for a free
// pending-writes entry is handed its entry (accepted, which the
// processor turns into the thread's EvDispatch) before its
// EvWriteIssue, whether the buffer flushes at once (depth 1) or the
// word rests in it (depth 4).
func TestRetriedWriteAcceptedBeforeIssue(t *testing.T) {
	for _, depth := range []int{1, 4} {
		r := newRigTiming(t, 2, 1, batchTiming(depth))
		o := stats.NewObserver(stats.ObserveConfig{})
		o.Bind(r.eng.Now, stats.TraceMeta{Nodes: 2})
		r.st.AttachObserver(o)
		frames := r.page(0, 1)
		w := r.cms[1]
		for i := 0; i < r.tm.MaxPendingWrites; i++ {
			w.Write(GAddr{1, frames[1], uint32(i)}, 7, noopAccept)
		}
		retried := GAddr{1, frames[1], 99}
		accepted := false
		w.Write(retried, 8, func() {
			accepted = true
			o.Emit(stats.EvDispatch, 1, 0, 0, 1, 0)
		})
		if accepted {
			t.Fatalf("depth %d: write accepted with the pending-writes cache full", depth)
		}
		r.eng.Run()
		w.FlushBatch()
		r.eng.Run()
		if !accepted || w.PendingCount() != 0 {
			t.Fatalf("depth %d: accepted=%v, %d writes pending", depth, accepted, w.PendingCount())
		}
		dispatch, issue := -1, -1
		for i, e := range slices.Collect(o.All()) {
			switch {
			case e.Kind == stats.EvDispatch:
				dispatch = i
			case e.Kind == stats.EvWriteIssue && e.A == packAddr(retried):
				issue = i
			}
		}
		if dispatch < 0 || issue < 0 || dispatch > issue {
			t.Fatalf("depth %d: retried write's EvDispatch at event %d, its EvWriteIssue at %d; want dispatch first", depth, dispatch, issue)
		}
	}
}

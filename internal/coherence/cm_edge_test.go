package coherence

import (
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/timing"
)

func TestFiveCopyChainFromTail(t *testing.T) {
	// Write issued through the LAST copy of a 5-deep list: request
	// forwards to the master, updates walk all four successors, the
	// tail (the writer's own node) acks locally.
	r := newRig(t, 8, 1)
	frames := r.page(0, 1, 2, 3, 4)
	r.cms[4].Write(GAddr{4, frames[4], 9}, 77, func() {})
	r.eng.Run()
	for n := mesh.NodeID(0); n <= 4; n++ {
		if got := r.mems[n].Read(frames[n], 9); got != 77 {
			t.Fatalf("copy %d = %d", n, got)
		}
	}
	if r.cms[4].PendingCount() != 0 {
		t.Fatal("write never completed")
	}
	// 1 forward (4→0) + 4 updates; the final ack is local (tail is the
	// originator).
	if r.st.MsgWrite != 1 || r.st.MsgUpdate != 4 || r.st.MsgAck != 0 {
		t.Fatalf("write=%d update=%d ack=%d", r.st.MsgWrite, r.st.MsgUpdate, r.st.MsgAck)
	}
}

func TestWriteForwardingCountsTwoHops(t *testing.T) {
	// Origin (node 3, no copy) sends to node 2's replica, which
	// forwards to the master on node 0: two write requests on the wire.
	r := newRig(t, 4, 1)
	frames := r.page(0, 2)
	r.cms[3].Write(GAddr{2, frames[2], 0}, 5, func() {})
	r.eng.Run()
	if r.st.MsgWrite != 2 {
		t.Fatalf("write messages = %d, want 2 (origin→replica→master)", r.st.MsgWrite)
	}
	if r.mems[0].Read(frames[0], 0) != 5 || r.mems[2].Read(frames[2], 0) != 5 {
		t.Fatal("write lost in forwarding")
	}
}

func TestTwoPendingWritesSameAddressBlockReadUntilBoth(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(1)
	g := GAddr{1, frames[1], 0}
	var acks int
	track := func() { acks++ }
	r.cms[0].Write(g, 1, func() {})
	r.cms[0].Write(g, 2, func() {})
	r.cms[0].Fence(track)
	var readAt sim.Cycles
	var readVal memory.Word
	r.cms[0].Read(g, func(v memory.Word) { readAt, readVal = r.eng.Now(), v })
	r.eng.Run()
	if acks != 1 {
		t.Fatal("fence never fired")
	}
	if readVal != 2 {
		t.Fatalf("read = %d, want the second write's value", readVal)
	}
	if r.cms[0].PendingCount() != 0 {
		t.Fatal("pending not drained")
	}
	_ = readAt
}

func TestConcurrentWriteAndRMWSerializeAtMaster(t *testing.T) {
	// A plain write and a fetch-and-add race to the same word from
	// different nodes: whatever order the master picks, all copies
	// agree and the result is one of the two serializations.
	r := newRig(t, 4, 1)
	frames := r.page(1, 3)
	r.mems[1].Write(frames[1], 0, 10)
	r.mems[3].Write(frames[3], 0, 10)
	var slot int
	r.cms[0].Write(GAddr{1, frames[1], 0}, 100, func() {})
	r.cms[2].RMW(OpFadd, GAddr{1, frames[1], 0}, 1, func(s int) { slot = s })
	r.eng.Run()
	r.cms[2].TryVerify(slot)
	v1 := r.mems[1].Read(frames[1], 0)
	v3 := r.mems[3].Read(frames[3], 0)
	if v1 != v3 {
		t.Fatalf("copies diverged: %d vs %d", v1, v3)
	}
	if v1 != 100 && v1 != 101 {
		t.Fatalf("final value %d is neither serialization", v1)
	}
}

func TestDelayedReadNeedsNoPendingEntry(t *testing.T) {
	// Fill the pending-writes cache; a delayed-read must still issue
	// (it carries no write), while a fadd must wait.
	r := newRig(t, 2, 1)
	frames := r.page(1)
	tm := r.tm
	for i := 0; i < tm.MaxPendingWrites; i++ {
		r.cms[0].Write(GAddr{1, frames[1], uint32(i)}, 1, func() {})
	}
	readIssued, faddIssued := false, false
	r.cms[0].RMW(OpDelayedRead, GAddr{1, frames[1], 50}, 0, func(int) { readIssued = true })
	r.cms[0].RMW(OpFadd, GAddr{1, frames[1], 51}, 1, func(int) { faddIssued = true })
	if !readIssued {
		t.Fatal("delayed-read blocked on a full pending-writes cache")
	}
	if faddIssued {
		t.Fatal("fadd issued despite full pending-writes cache")
	}
	r.eng.Run()
	if !faddIssued {
		t.Fatal("fadd never issued after drain")
	}
}

func TestInterleavedPagesIndependentPending(t *testing.T) {
	// Writes to two different pages share the pending-writes cache but
	// block reads only by address.
	r := newRig(t, 2, 1)
	fa := r.page(1)
	fb := r.page(1)
	ga := GAddr{1, fa[1], 0}
	gb := GAddr{1, fb[1], 0}
	r.mems[1].Write(fb[1], 0, 9)
	r.cms[0].Write(ga, 1, func() {})
	done := false
	r.cms[0].Read(gb, func(v memory.Word) {
		done = true
		if v != 9 {
			t.Errorf("read = %d", v)
		}
	})
	// The read of page B proceeds without waiting for page A's ack:
	// run only until the read's natural completion time.
	want := timing.RemoteReadOverhead + 2*r.net.Latency(0, 1) + timing.CMProcess
	r.eng.RunUntil(want)
	if !done {
		t.Fatal("read of an unrelated address was blocked by a pending write")
	}
	r.eng.Run()
}

func TestSlotWaiterWakesInOrder(t *testing.T) {
	// Saturate the delayed-op cache, then issue two more; they must
	// issue in FIFO order as slots free.
	r := newRig(t, 2, 1)
	frames := r.page(1)
	tm := r.tm
	var first [8]int
	for i := 0; i < tm.MaxDelayedOps; i++ {
		i := i
		r.cms[0].RMW(OpDelayedRead, GAddr{1, frames[1], uint32(i)}, 0, func(s int) { first[i] = s })
	}
	var order []string
	r.cms[0].RMW(OpDelayedRead, GAddr{1, frames[1], 20}, 0, func(int) { order = append(order, "a") })
	r.cms[0].RMW(OpDelayedRead, GAddr{1, frames[1], 21}, 0, func(int) { order = append(order, "b") })
	r.eng.Run()
	// Free two slots; the queued RMWs must issue a then b.
	r.cms[0].TryVerify(first[0])
	r.eng.Run()
	r.cms[0].TryVerify(first[1])
	r.eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("issue order = %v", order)
	}
}

func TestUpdateCarriesMultipleWordsOnce(t *testing.T) {
	// A queue RMW modifies two words (slot + control); they propagate
	// in ONE update message per hop and apply atomically at each copy.
	r := newRig(t, 4, 1)
	frames := r.page(0, 2)
	qsz := uint32(timing.MaxQueueSize)
	var slot int
	r.cms[0].RMW(OpQueue, GAddr{0, frames[0], qsz}, 42, func(s int) { slot = s })
	r.eng.Run()
	r.cms[0].TryVerify(slot)
	if r.st.MsgUpdate != 1 {
		t.Fatalf("updates = %d, want 1 multi-word message", r.st.MsgUpdate)
	}
	if r.mems[2].Read(frames[2], 0) != 42|memory.TopBit {
		t.Fatal("slot word not replicated")
	}
	if r.mems[2].Read(frames[2], qsz) != 1 {
		t.Fatal("control word not replicated")
	}
}

func TestReadReplyRoutesToCorrectWaiter(t *testing.T) {
	// Multiple outstanding remote reads resolve to their own values.
	r := newRig(t, 2, 1)
	frames := r.page(1)
	for i := uint32(0); i < 5; i++ {
		r.mems[1].Write(frames[1], i, memory.Word(100+i))
	}
	got := make(map[uint32]memory.Word)
	for i := uint32(0); i < 5; i++ {
		i := i
		r.cms[0].Read(GAddr{1, frames[1], i}, func(v memory.Word) { got[i] = v })
	}
	r.eng.Run()
	for i := uint32(0); i < 5; i++ {
		if got[i] != memory.Word(100+i) {
			t.Fatalf("read %d = %d", i, got[i])
		}
	}
}

package coherence

import (
	"slices"
	"testing"

	"plus/internal/cache"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// rig is a hand-wired machine fragment: N nodes on a mesh, each with
// memory, cache and a CM, and helpers to build replicated pages.
type rig struct {
	eng  *sim.Engine
	net  *mesh.Mesh
	st   *stats.Machine
	tm   timing.Timing
	mems []*memory.Memory
	cms  []*CM
}

func newRig(t *testing.T, w, h int) *rig {
	t.Helper()
	return newRigTiming(t, w, h, timing.Default())
}

// newRigTiming is newRig with custom cache depths (the batching tests
// raise MaxBatchWrites).
func newRigTiming(t *testing.T, w, h int, tm timing.Timing) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig(w, h))
	st := stats.New(w * h)
	r := &rig{eng: eng, net: net, st: st, tm: tm}
	for i := 0; i < w*h; i++ {
		mem := memory.New()
		ca := cache.New()
		r.mems = append(r.mems, mem)
		r.cms = append(r.cms, New(mesh.NodeID(i), eng, net, mem, ca, tm, st))
	}
	return r
}

// page builds a replicated page with copies (in copy-list order) on
// the given nodes; the first is the master. It returns the per-node
// frame for each copy.
func (r *rig) page(nodes ...mesh.NodeID) map[mesh.NodeID]memory.PPage {
	frames := make(map[mesh.NodeID]memory.PPage, len(nodes))
	gp := make([]memory.GPage, len(nodes))
	for i, n := range nodes {
		f := r.mems[n].AllocFrame()
		frames[n] = f
		gp[i] = memory.GPage{Node: n, Page: f}
	}
	for i, n := range nodes {
		next := memory.NilGPage
		if i+1 < len(nodes) {
			next = gp[i+1]
		}
		r.cms[n].InstallPage(frames[n], gp[0], next)
	}
	return frames
}

// addrFor returns the GAddr a processor on node uses for word off of
// the page, given its closest copy (the node's own if present, else
// the master).
func addrFor(frames map[mesh.NodeID]memory.PPage, master mesh.NodeID, node mesh.NodeID, off uint32) GAddr {
	if f, ok := frames[node]; ok {
		return GAddr{Node: node, Page: f, Off: off}
	}
	return GAddr{Node: master, Page: frames[master], Off: off}
}

func TestLocalWriteUnreplicated(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	var acked bool
	r.cms[0].Write(GAddr{0, frames[0], 5}, 77, func() { acked = true })
	if !acked {
		t.Fatal("write not accepted synchronously with free slot")
	}
	// Master local, no copies: completes inline without network.
	if r.cms[0].PendingCount() != 0 {
		t.Fatalf("pending = %d after self-contained write", r.cms[0].PendingCount())
	}
	r.eng.Run()
	if got := r.mems[0].Read(frames[0], 5); got != 77 {
		t.Fatalf("memory = %d", got)
	}
	if r.st.Messages() != 0 {
		t.Fatalf("unreplicated local write sent %d messages", r.st.Messages())
	}
	if r.st.Nodes[0].LocalWrites != 1 {
		t.Fatalf("local writes = %d", r.st.Nodes[0].LocalWrites)
	}
}

func TestLocalReadValueAndStats(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	r.mems[0].Write(frames[0], 3, 42)
	var got memory.Word
	r.cms[0].Read(GAddr{0, frames[0], 3}, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 42 {
		t.Fatalf("read = %d", got)
	}
	if r.st.Nodes[0].LocalReads != 1 || r.st.Nodes[0].RemoteReads != 0 {
		t.Fatalf("read stats: %+v", r.st.Nodes[0])
	}
}

func TestRemoteRead(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(1) // page lives only on node 1
	r.mems[1].Write(frames[1], 9, 1234)
	var got memory.Word
	var at sim.Cycles
	r.cms[0].Read(GAddr{1, frames[1], 9}, func(v memory.Word) { got, at = v, r.eng.Now() })
	r.eng.Run()
	if got != 1234 {
		t.Fatalf("remote read = %d", got)
	}
	// Cost anatomy: 32 (overhead) + one-way + CMProcess + one-way.
	want := timing.RemoteReadOverhead + 2*r.net.Latency(0, 1) + timing.CMProcess
	if at != want {
		t.Fatalf("remote read completed at %d, want %d", at, want)
	}
	if r.st.Nodes[0].RemoteReads != 1 {
		t.Fatalf("remote reads = %d", r.st.Nodes[0].RemoteReads)
	}
	if r.st.MsgRead != 1 || r.st.MsgReadRep != 1 {
		t.Fatalf("message stats: %+v", r.st)
	}
}

func TestReplicatedWritePropagates(t *testing.T) {
	r := newRig(t, 4, 1)
	frames := r.page(0, 1, 2) // master on 0, copies on 1, 2
	done := false
	r.cms[0].Write(GAddr{0, frames[0], 7}, 55, func() {})
	r.cms[0].Fence(func() { done = true })
	if done {
		t.Fatal("fence passed with write in flight")
	}
	r.eng.Run()
	if !done {
		t.Fatal("fence never completed")
	}
	for n := mesh.NodeID(0); n < 3; n++ {
		if got := r.mems[n].Read(frames[n], 7); got != 55 {
			t.Fatalf("node %d copy = %d, want 55", n, got)
		}
	}
	// Two update messages (0→1, 1→2) and one ack (2→0).
	if r.st.MsgUpdate != 2 || r.st.MsgAck != 1 {
		t.Fatalf("updates=%d acks=%d", r.st.MsgUpdate, r.st.MsgAck)
	}
	if r.st.Nodes[1].Updates != 1 || r.st.Nodes[2].Updates != 1 {
		t.Fatalf("per-node updates: %d %d", r.st.Nodes[1].Updates, r.st.Nodes[2].Updates)
	}
}

func TestWriteFromNonMasterCopyStartsAtMaster(t *testing.T) {
	r := newRig(t, 4, 1)
	frames := r.page(0, 2) // master 0, copy 2
	// Node 2 writes through its local copy: request must route to the
	// master first, then propagate back down the list through node 2.
	r.cms[2].Write(GAddr{2, frames[2], 1}, 11, func() {})
	r.eng.Run()
	if got := r.mems[0].Read(frames[0], 1); got != 11 {
		t.Fatalf("master = %d", got)
	}
	if got := r.mems[2].Read(frames[2], 1); got != 11 {
		t.Fatalf("copy = %d", got)
	}
	// Counted remote: the master is not local to the writer.
	if r.st.Nodes[2].RemoteWrites != 1 || r.st.Nodes[2].LocalWrites != 0 {
		t.Fatalf("write stats: %+v", r.st.Nodes[2])
	}
	if r.cms[2].PendingCount() != 0 {
		t.Fatal("write never completed")
	}
}

func TestWriteFromThirdPartyForwardsToMaster(t *testing.T) {
	r := newRig(t, 4, 1)
	frames := r.page(1, 3) // master 1, copy 3
	// Node 0 has no copy; its mapping points at the master directly.
	r.cms[0].Write(GAddr{1, frames[1], 2}, 99, func() {})
	r.eng.Run()
	if r.mems[1].Read(frames[1], 2) != 99 || r.mems[3].Read(frames[3], 2) != 99 {
		t.Fatal("write did not reach all copies")
	}
	if r.cms[0].PendingCount() != 0 {
		t.Fatal("originator never got the ack")
	}
}

func TestGeneralCoherenceSameOrderEverywhere(t *testing.T) {
	// Two nodes write the same location concurrently through different
	// entry points; all copies must converge to the same final value
	// (copies of a location are always written in the same order).
	r := newRig(t, 4, 1)
	frames := r.page(1, 0, 3)
	a := addrFor(frames, 1, 0, 4) // node 0 writes via its own copy
	b := addrFor(frames, 1, 3, 4) // node 3 writes via its own copy
	for i := 0; i < 10; i++ {
		v := memory.Word(100 + i)
		r.cms[0].Write(a, v, func() {})
		r.cms[3].Write(b, 1000+v, func() {})
	}
	r.eng.Run()
	v0 := r.mems[0].Read(frames[0], 4)
	v1 := r.mems[1].Read(frames[1], 4)
	v3 := r.mems[3].Read(frames[3], 4)
	if v0 != v1 || v1 != v3 {
		t.Fatalf("copies diverged: %d %d %d", v0, v1, v3)
	}
}

func TestPendingWritesCacheLimit(t *testing.T) {
	r := newRig(t, 2, 1)
	tm := timing.Default()
	frames := r.page(1) // all writes remote → slow to retire
	accepted := 0
	for i := 0; i < tm.MaxPendingWrites+3; i++ {
		r.cms[0].Write(GAddr{1, frames[1], uint32(i)}, memory.Word(i), func() { accepted++ })
	}
	if accepted != tm.MaxPendingWrites {
		t.Fatalf("accepted %d writes synchronously, want %d", accepted, tm.MaxPendingWrites)
	}
	r.eng.Run()
	if accepted != tm.MaxPendingWrites+3 {
		t.Fatalf("total accepted = %d", accepted)
	}
	if r.cms[0].PendingCount() != 0 {
		t.Fatal("pending cache not drained")
	}
}

func TestReadBlocksOnPendingWrite(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(1)
	g := GAddr{1, frames[1], 0}
	var readDone sim.Cycles
	var ackAt sim.Cycles
	r.cms[0].Write(g, 5, func() {})
	// Track when the write retires.
	r.cms[0].Fence(func() { ackAt = r.eng.Now() })
	r.cms[0].Read(g, func(v memory.Word) {
		readDone = r.eng.Now()
		if v != 5 {
			t.Errorf("read saw %d, want 5", v)
		}
	})
	r.eng.Run()
	if readDone < ackAt {
		t.Fatalf("read completed at %d before write retired at %d", readDone, ackAt)
	}
}

func TestFenceSynchronousWhenIdle(t *testing.T) {
	r := newRig(t, 2, 1)
	called := false
	r.cms[0].Fence(func() { called = true })
	if !called {
		t.Fatal("idle fence was not synchronous")
	}
	if r.st.Nodes[0].Fences != 1 {
		t.Fatalf("fence count = %d", r.st.Nodes[0].Fences)
	}
}

func TestRMWFaddLocalMaster(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0, 1)
	r.mems[0].Write(frames[0], 0, 10)
	r.mems[1].Write(frames[1], 0, 10)
	g := GAddr{0, frames[0], 0}
	var slot int
	r.cms[0].RMW(OpFadd, g, 7, func(s int) { slot = s })
	var got memory.Word
	r.cms[0].Verify(slot, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 10 {
		t.Fatalf("fadd returned %d, want old value 10", got)
	}
	if r.mems[0].Read(frames[0], 0) != 17 || r.mems[1].Read(frames[1], 0) != 17 {
		t.Fatal("fadd result did not propagate to all copies")
	}
	if r.cms[0].BusySlots() != 0 {
		t.Fatal("slot not freed after Verify")
	}
	if r.cms[0].PendingCount() != 0 {
		t.Fatal("RMW write entry not retired")
	}
}

func TestRMWRemoteMasterTiming(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(1)
	g := GAddr{1, frames[1], 0}
	var at sim.Cycles
	var slot int
	r.cms[0].RMW(OpFadd, g, 1, func(s int) { slot = s })
	r.cms[0].Verify(slot, func(v memory.Word) { at = r.eng.Now() })
	r.eng.Run()
	// one-way + CMProcess + 39 exec + one-way back.
	want := 2*r.net.Latency(0, 1) + timing.CMProcess + timing.RMWSimple
	if at != want {
		t.Fatalf("fadd result at %d, want %d", at, want)
	}
}

func TestRMWComplexCost(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(1)
	// min-xchng is a 52-cycle op.
	g := GAddr{1, frames[1], 0}
	var at sim.Cycles
	var slot int
	r.cms[0].RMW(OpMinXchng, g, 1, func(s int) { slot = s })
	r.cms[0].Verify(slot, func(v memory.Word) { at = r.eng.Now() })
	r.eng.Run()
	want := 2*r.net.Latency(0, 1) + timing.CMProcess + timing.RMWComplex
	if at != want {
		t.Fatalf("min-xchng result at %d, want %d", at, want)
	}
}

func TestDelayedOpCacheLimit(t *testing.T) {
	r := newRig(t, 2, 1)
	tm := timing.Default()
	frames := r.page(1)
	issued := 0
	for i := 0; i < tm.MaxDelayedOps+2; i++ {
		r.cms[0].RMW(OpDelayedRead, GAddr{1, frames[1], uint32(i)}, 0, func(s int) { issued++ })
	}
	if issued != tm.MaxDelayedOps {
		t.Fatalf("issued %d ops synchronously, want %d", issued, tm.MaxDelayedOps)
	}
	// Results arrive, but slots free only on Verify/TryVerify.
	r.eng.Run()
	if issued != tm.MaxDelayedOps {
		t.Fatalf("slots freed without Verify (issued=%d)", issued)
	}
	freed := 0
	for s := 0; s < tm.MaxDelayedOps; s++ {
		if _, ok := r.cms[0].TryVerify(s); ok {
			freed++
		}
	}
	if freed != tm.MaxDelayedOps {
		t.Fatalf("TryVerify freed %d", freed)
	}
	r.eng.Run()
	if issued != tm.MaxDelayedOps+2 {
		t.Fatalf("queued RMWs never issued (issued=%d)", issued)
	}
}

func TestTryVerifyNotReady(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(1)
	var slot int
	r.cms[0].RMW(OpDelayedRead, GAddr{1, frames[1], 0}, 0, func(s int) { slot = s })
	if _, ok := r.cms[0].TryVerify(slot); ok {
		t.Fatal("TryVerify succeeded before the result arrived")
	}
	r.eng.Run()
	if _, ok := r.cms[0].TryVerify(slot); !ok {
		t.Fatal("TryVerify failed after the result arrived")
	}
}

func TestCondXchngNoWriteWhenTopBitClear(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0, 1)
	r.mems[0].Write(frames[0], 0, 3) // top bit clear → no write
	r.mems[1].Write(frames[1], 0, 3)
	var slot int
	r.cms[0].RMW(OpCondXchng, GAddr{0, frames[0], 0}, 42, func(s int) { slot = s })
	var got memory.Word
	r.cms[0].Verify(slot, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 3 {
		t.Fatalf("cond-xchng returned %d", got)
	}
	if r.mems[0].Read(frames[0], 0) != 3 {
		t.Fatal("cond-xchng wrote despite clear top bit")
	}
	if r.st.MsgUpdate != 0 {
		t.Fatal("no-op RMW sent updates")
	}
	if r.cms[0].PendingCount() != 0 {
		t.Fatal("no-op RMW left a pending write")
	}
}

func TestQueueDequeueRoundTrip(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	qsz := uint32(timing.MaxQueueSize)
	tailCtl := qsz // control words live above the wrap range
	headCtl := qsz + 1
	g := func(off uint32) GAddr { return GAddr{0, frames[0], off} }

	enq := func(v memory.Word) memory.Word {
		var slot int
		r.cms[0].RMW(OpQueue, g(tailCtl), v, func(s int) { slot = s })
		var res memory.Word
		r.cms[0].Verify(slot, func(w memory.Word) { res = w })
		r.eng.Run()
		return res
	}
	deq := func() memory.Word {
		var slot int
		r.cms[0].RMW(OpDequeue, g(headCtl), 0, func(s int) { slot = s })
		var res memory.Word
		r.cms[0].Verify(slot, func(w memory.Word) { res = w })
		r.eng.Run()
		return res
	}

	if res := enq(7); res&memory.TopBit != 0 {
		t.Fatalf("enqueue into empty queue reported full: %#x", res)
	}
	if res := enq(8); res&memory.TopBit != 0 {
		t.Fatalf("second enqueue reported full: %#x", res)
	}
	r1 := deq()
	if r1&memory.TopBit == 0 || r1&^memory.TopBit != 7 {
		t.Fatalf("dequeue #1 = %#x, want 7 with top bit", r1)
	}
	r2 := deq()
	if r2&memory.TopBit == 0 || r2&^memory.TopBit != 8 {
		t.Fatalf("dequeue #2 = %#x, want 8 with top bit", r2)
	}
	// Empty queue: the head slot word has its top bit clear.
	if r3 := deq(); r3&memory.TopBit != 0 {
		t.Fatalf("dequeue of empty queue returned occupied word %#x", r3)
	}
}

func TestQueueWrapsModuloMaxQueueSize(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	qsz := uint32(timing.MaxQueueSize)
	// Start the tail at the last slot: next enqueue wraps to 0.
	r.mems[0].Write(frames[0], qsz, memory.Word(qsz-1))
	var slot int
	r.cms[0].RMW(OpQueue, GAddr{0, frames[0], qsz}, 5, func(s int) { slot = s })
	r.cms[0].Verify(slot, func(memory.Word) {})
	r.eng.Run()
	if got := r.mems[0].Read(frames[0], qsz); got != 0 {
		t.Fatalf("tail after wrap = %d, want 0", got)
	}
	if got := r.mems[0].Read(frames[0], qsz-1); got != 5|memory.TopBit {
		t.Fatalf("slot = %#x", got)
	}
}

func TestQueueFullReportsOccupiedWord(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	qsz := uint32(timing.MaxQueueSize)
	// Fill every slot.
	for off := uint32(0); off < qsz; off++ {
		r.mems[0].Write(frames[0], off, memory.TopBit|memory.Word(off))
	}
	var slot int
	r.cms[0].RMW(OpQueue, GAddr{0, frames[0], qsz}, 9, func(s int) { slot = s })
	var res memory.Word
	r.cms[0].Verify(slot, func(v memory.Word) { res = v })
	r.eng.Run()
	if res&memory.TopBit == 0 {
		t.Fatalf("full queue enqueue returned %#x (top bit clear)", res)
	}
	if got := r.mems[0].Read(frames[0], qsz); got != 0 {
		t.Fatalf("tail moved on failed enqueue: %d", got)
	}
}

func TestMinXchngStoresSmaller(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0, 1)
	r.mems[0].Write(frames[0], 0, 100)
	r.mems[1].Write(frames[1], 0, 100)
	g := GAddr{0, frames[0], 0}
	run := func(v memory.Word) memory.Word {
		var slot int
		r.cms[0].RMW(OpMinXchng, g, v, func(s int) { slot = s })
		var res memory.Word
		r.cms[0].Verify(slot, func(w memory.Word) { res = w })
		r.eng.Run()
		return res
	}
	if old := run(50); old != 100 {
		t.Fatalf("min-xchng returned %d", old)
	}
	if r.mems[1].Read(frames[1], 0) != 50 {
		t.Fatal("smaller value did not propagate")
	}
	if old := run(70); old != 50 {
		t.Fatalf("second min-xchng returned %d", old)
	}
	if r.mems[0].Read(frames[0], 0) != 50 {
		t.Fatal("larger value overwrote minimum")
	}
}

func TestFetchSetAndXchng(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	g := GAddr{0, frames[0], 0}
	rmw := func(op Op, v memory.Word) memory.Word {
		var slot int
		r.cms[0].RMW(op, g, v, func(s int) { slot = s })
		var res memory.Word
		r.cms[0].Verify(slot, func(w memory.Word) { res = w })
		r.eng.Run()
		return res
	}
	if old := rmw(OpFetchSet, 0); old != 0 {
		t.Fatalf("fetch-and-set returned %d", old)
	}
	if got := r.mems[0].Read(frames[0], 0); got != memory.TopBit {
		t.Fatalf("memory = %#x", got)
	}
	if old := rmw(OpXchng, 7); old != memory.TopBit {
		t.Fatalf("xchng returned %#x", old)
	}
	if got := r.mems[0].Read(frames[0], 0); got != 7 {
		t.Fatalf("memory after xchng = %d", got)
	}
}

func TestFaddSignedDelta(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	r.mems[0].Write(frames[0], 0, 10)
	g := GAddr{0, frames[0], 0}
	var slot int
	// -3 as two's-complement word.
	r.cms[0].RMW(OpFadd, g, memory.Word(^uint32(2)), func(s int) { slot = s })
	r.cms[0].Verify(slot, func(memory.Word) {})
	r.eng.Run()
	if got := r.mems[0].Read(frames[0], 0); got != 7 {
		t.Fatalf("10 + (-3) = %d", got)
	}
}

func TestFenceWaitsForRMWPropagation(t *testing.T) {
	r := newRig(t, 4, 1)
	frames := r.page(0, 1, 2, 3)
	g := GAddr{0, frames[0], 0}
	var slot int
	r.cms[0].RMW(OpFadd, g, 1, func(s int) { slot = s })
	fenced := false
	r.cms[0].Fence(func() {
		fenced = true
		// At fence time every copy must hold the new value.
		for n := mesh.NodeID(0); n < 4; n++ {
			if r.mems[n].Read(frames[n], 0) != 1 {
				t.Errorf("copy on node %d stale at fence", n)
			}
		}
	})
	r.eng.Run()
	if !fenced {
		t.Fatal("fence never fired")
	}
	r.cms[0].Verify(slot, func(memory.Word) {})
}

func TestPageCopyInstalls(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	for i := uint32(0); i < memory.PageWords; i++ {
		r.mems[0].Write(frames[0], i, memory.Word(i*3))
	}
	dstFrame := r.mems[1].AllocFrame()
	done := false
	r.cms[0].PageCopy(frames[0], memory.GPage{Node: 1, Page: dstFrame}, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("page copy completion never fired")
	}
	for i := uint32(0); i < memory.PageWords; i += 97 {
		if got := r.mems[1].Read(dstFrame, i); got != memory.Word(i*3) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	if r.st.Nodes[1].PagesCopied != 1 || r.st.MsgPage != 1 {
		t.Fatalf("page copy stats: %+v", r.st.Nodes[1])
	}
}

func TestConcurrentFaddsAllApply(t *testing.T) {
	// N concurrent fetch-and-adds from different nodes must all land:
	// the master serializes them (atomicity under contention).
	r := newRig(t, 4, 1)
	frames := r.page(1, 0, 2, 3)
	var slots [4]int
	for n := 0; n < 4; n++ {
		g := addrFor(frames, 1, mesh.NodeID(n), 0)
		r.cms[n].RMW(OpFadd, g, 1, func(s int) { slots[n] = s })
	}
	r.eng.Run()
	for n := 0; n < 4; n++ {
		if _, ok := r.cms[n].TryVerify(slots[n]); !ok {
			t.Fatalf("node %d result missing", n)
		}
	}
	r.eng.Run()
	for n := mesh.NodeID(0); n < 4; n++ {
		if got := r.mems[n].Read(frames[n], 0); got != 4 {
			t.Fatalf("node %d sees %d, want 4", n, got)
		}
	}
}

func TestUpdateRatioStatsShape(t *testing.T) {
	// More copies ⇒ more update messages for the same writes.
	msgs := func(copies int) (updates, total uint64) {
		r := newRig(t, 4, 1)
		nodes := make([]mesh.NodeID, copies)
		for i := range nodes {
			nodes[i] = mesh.NodeID(i)
		}
		frames := r.page(nodes...)
		for i := 0; i < 20; i++ {
			r.cms[0].Write(GAddr{0, frames[0], uint32(i % 8)}, 1, func() {})
			r.eng.Run()
		}
		return r.st.MsgUpdate, r.st.Messages()
	}
	u1, _ := msgs(1)
	u2, t2 := msgs(2)
	u4, t4 := msgs(4)
	if u1 != 0 {
		t.Fatalf("single copy generated %d updates", u1)
	}
	if !(u4 > u2 && u2 > u1) {
		t.Fatalf("updates not increasing with copies: %d %d %d", u1, u2, u4)
	}
	if float64(t4)/float64(u4) >= float64(t2)/float64(u2) {
		t.Fatalf("total/update ratio did not fall with replication: %f vs %f",
			float64(t4)/float64(u4), float64(t2)/float64(u2))
	}
}

// TestIssueReturnsCause pins the causal IDs Read and Write hand the
// processor: a traced remote read's and a write's are the IDs their
// issue events carry; a local read, a write waiting for a free
// pending-writes entry and any untraced issue return 0.
func TestIssueReturnsCause(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0)
	remote := func(off uint32) GAddr { return GAddr{0, frames[0], off} }
	if c := r.cms[1].Write(remote(1), 1, func() {}); c != 0 {
		t.Fatalf("untraced write returned cause %#x", c)
	}
	r.eng.Run()
	o := stats.NewObserver(stats.ObserveConfig{})
	o.Bind(r.eng.Now, stats.TraceMeta{Nodes: 2})
	r.st.AttachObserver(o)

	var writes []uint64
	for off := uint32(0); int(off) < r.tm.MaxPendingWrites; off++ {
		writes = append(writes, r.cms[1].Write(remote(off), 7, func() {}))
	}
	if c := r.cms[1].Write(remote(99), 7, func() {}); c != 0 {
		t.Fatalf("write behind a full cache returned cause %#x", c)
	}
	r.eng.Run()
	read := r.cms[1].Read(remote(2), func(memory.Word) {})
	if c := r.cms[0].Read(remote(3), func(memory.Word) {}); c != 0 {
		t.Fatalf("local read returned cause %#x", c)
	}
	r.eng.Run()

	var issued, reads []uint64
	for e := range o.All() {
		switch e.Kind {
		case stats.EvWriteIssue:
			issued = append(issued, e.Cause)
		case stats.EvReadIssue:
			reads = append(reads, e.Cause)
		}
	}
	// The waiting write issues last, under a cause its caller never saw.
	if len(issued) != len(writes)+1 || !slices.Equal(issued[:len(writes)], writes) || slices.Contains(writes, 0) {
		t.Fatalf("writes returned causes %#x, their issue events carry %#x", writes, issued)
	}
	if len(reads) != 1 || read == 0 || reads[0] != read {
		t.Fatalf("remote read returned cause %#x, issue events carry %#x", read, reads)
	}
}

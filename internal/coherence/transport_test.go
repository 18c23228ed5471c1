package coherence

import (
	"testing"

	"plus/internal/cache"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// newFaultyRig is newRig on an unreliable network.
func newFaultyRig(t *testing.T, w, h int, f mesh.FaultConfig) *rig {
	t.Helper()
	return newFaultyRigTiming(t, w, h, f, timing.Default())
}

// newFaultyRigTiming is newFaultyRig with custom cache depths.
func newFaultyRigTiming(t *testing.T, w, h int, f mesh.FaultConfig, tm timing.Timing) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := mesh.DefaultConfig(w, h)
	cfg.Faults = f
	net := mesh.New(eng, cfg)
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

// TestTransportSurvivesChaos drives writes from every node through a
// network that drops, duplicates and reorders messages, and checks that
// the reliability sublayer delivers the protocol intact: every write
// completes, every replica converges with the master, the retransmit
// queues drain, and no pooled message leaks.
func TestTransportSurvivesChaos(t *testing.T) {
	f := mesh.FaultConfig{Seed: 5, DropRate: 0.15, DupRate: 0.1, DelayRate: 0.2, DelayMax: 200}
	r := newFaultyRig(t, 2, 2, f)
	frames := r.page(0, 1, 2) // master on 0, copies on 1 and 2; node 3 bare
	for i := 0; i < 40; i++ {
		off := uint32(i % 16)
		node := mesh.NodeID(i % 4)
		g := addrFor(frames, 0, node, off)
		r.cms[node].Write(g, memory.Word(1000+i), func() {})
	}
	r.eng.Run()
	for i, cm := range r.cms {
		if cm.PendingCount() != 0 {
			t.Fatalf("node %d: %d writes never completed", i, cm.PendingCount())
		}
		if !cm.TransportIdle() {
			t.Fatalf("node %d: retransmit queue not drained", i)
		}
	}
	for _, n := range []mesh.NodeID{1, 2} {
		for off := uint32(0); off < 16; off++ {
			if got, want := r.mems[n].Read(frames[n], off), r.mems[0].Read(frames[0], off); got != want {
				t.Fatalf("replica on node %d diverged at word %d: %d != master %d", n, off, got, want)
			}
		}
	}
	if r.st.Retransmits == 0 {
		t.Fatal("chaos run exercised no retransmits")
	}
	if r.st.TransDups == 0 && r.st.TransGaps == 0 {
		t.Fatal("chaos run exercised no receiver-side drops")
	}
	net := r.net.Stats()
	if net.Dropped == 0 {
		t.Fatalf("fault injection inactive: %+v", net)
	}
	if live := r.net.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live after drain", live)
	}
}

// TestTransportSurvivesChaosBatched repeats the chaos run with write
// combining on: the multi-word kWriteReq/kUpdate messages ride the
// same go-back-N machinery, and a retransmission re-sends the whole
// Writes vector (the transport parks a deep clone, vector included),
// so every word of every batch must still land on every replica.
func TestTransportSurvivesChaosBatched(t *testing.T) {
	f := mesh.FaultConfig{Seed: 5, DropRate: 0.15, DupRate: 0.1, DelayRate: 0.2, DelayMax: 200}
	tm := timing.Default()
	tm.MaxBatchWrites = 4
	r := newFaultyRigTiming(t, 2, 2, f, tm)
	frames := r.page(0, 1, 2) // master on 0, copies on 1 and 2; node 3 bare
	writes := 0
	for i := 0; i < 40; i++ {
		off := uint32(i % 16)
		node := mesh.NodeID(i % 4)
		g := addrFor(frames, 0, node, off)
		r.cms[node].Write(g, memory.Word(1000+i), func() {})
		writes++
	}
	// 10 writes per node exceed the pending-writes depth, so waiters
	// re-issue (and re-buffer) while the engine runs; with no processor
	// attached to this rig, drain the combine buffers the way the proc
	// layer's exit hook would until everything is flushed and acked.
	r.eng.Run()
	for again := true; again; {
		again = false
		for _, cm := range r.cms {
			if cm.BufferedWrites() > 0 {
				cm.FlushBatch()
				again = true
			}
		}
		r.eng.Run()
	}
	for i, cm := range r.cms {
		if cm.PendingCount() != 0 {
			t.Fatalf("node %d: %d writes never completed", i, cm.PendingCount())
		}
		if cm.BufferedWrites() != 0 {
			t.Fatalf("node %d: combine buffer not drained", i)
		}
		if !cm.TransportIdle() {
			t.Fatalf("node %d: retransmit queue not drained", i)
		}
	}
	// Convergence: because writes to one offset arrive from several
	// nodes, only replica-vs-master equality is checkable (same as the
	// unbatched chaos test).
	for _, n := range []mesh.NodeID{1, 2} {
		for off := uint32(0); off < 16; off++ {
			if got, want := r.mems[n].Read(frames[n], off), r.mems[0].Read(frames[0], off); got != want {
				t.Fatalf("replica on node %d diverged at word %d: %d != master %d", n, off, got, want)
			}
		}
	}
	if got := r.st.MsgWrite; got >= uint64(writes) {
		t.Fatalf("batching inactive: %d write requests for %d writes", got, writes)
	}
	if r.st.Retransmits == 0 {
		t.Fatal("batched chaos run exercised no retransmits")
	}
	if r.st.Totals().CoalescedWrites == 0 {
		t.Fatal("batched chaos run coalesced nothing")
	}
	if live := r.net.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live after drain", live)
	}
}

// TestTransportRecoversEveryKind exercises loss under each protocol
// message flavour: remote blocking reads, remote writes through
// forwarding, RMWs, and a background page copy.
func TestTransportRecoversEveryKind(t *testing.T) {
	f := mesh.FaultConfig{Seed: 9, DropRate: 0.25}
	r := newFaultyRig(t, 2, 1, f)
	frames := r.page(0, 1)
	r.mems[0].Write(frames[0], 2, 77)
	r.mems[1].Write(frames[1], 2, 77)

	var reads []memory.Word
	for i := 0; i < 8; i++ {
		r.cms[1].Read(GAddr{0, frames[0], 2}, func(v memory.Word) { reads = append(reads, v) })
		r.cms[1].Write(GAddr{1, frames[1], uint32(4 + i)}, memory.Word(i), func() {})
		r.cms[1].RMW(OpFadd, GAddr{0, frames[0], 3}, 1, func(slot int) {})
	}
	r.eng.Run()
	if len(reads) != 8 {
		t.Fatalf("completed %d of 8 remote reads", len(reads))
	}
	for _, v := range reads {
		if v != 77 {
			t.Fatalf("remote read returned %d, want 77", v)
		}
	}
	if got := r.mems[0].Read(frames[0], 3); got != 8 {
		t.Fatalf("fetch-add total = %d, want 8", got)
	}
	if got := r.mems[1].Read(frames[1], 3); got != 8 {
		t.Fatalf("replica fetch-add total = %d, want 8", got)
	}
	if r.st.Retransmits == 0 {
		t.Fatal("no retransmits at 25%% loss")
	}
	if live := r.net.LiveMsgs(); live != 0 {
		t.Fatalf("pool imbalance: %d messages live after drain", live)
	}
}

// TestTransportInertWhenOff pins the zero-cost guarantee: on a reliable
// network no sequence numbers are stamped and no transport messages or
// state appear.
func TestTransportInertWhenOff(t *testing.T) {
	r := newRig(t, 2, 1)
	frames := r.page(0, 1)
	r.cms[1].Write(GAddr{0, frames[0], 1}, 5, func() {})
	r.eng.Run()
	if r.st.MsgTAck != 0 || r.st.Retransmits != 0 || r.st.TransDups != 0 || r.st.TransGaps != 0 {
		t.Fatalf("transport active on a reliable network: tacks=%d retrans=%d", r.st.MsgTAck, r.st.Retransmits)
	}
	for i, cm := range r.cms {
		if !cm.TransportIdle() {
			t.Fatalf("node %d transport not idle", i)
		}
		if cm.reliable || cm.tx != nil || cm.rx != nil {
			t.Fatalf("node %d allocated transport state on a reliable network", i)
		}
	}
}

// replayWrite issues a write from node 1 when a barrier replays it.
type replayWrite struct {
	r *rig
	g GAddr
}

func (w replayWrite) HandleEvent(int, any) { w.r.cms[1].Write(w.g, 7, func() {}) }

// TestReplayArmedTimerKeepsLane arms a retransmit timer during a
// barrier replay, where every key comes from the replay's counter, and
// lets it fire before the ack returns. The timer runs as node 1's
// activity, so its re-send and re-arm draw from node 1's counter: no
// key of the run is ever drawn from the engine's own NoLane counter,
// which a second engine would not share.
func TestReplayArmedTimerKeepsLane(t *testing.T) {
	// Every message is delayed by up to 4,096 cycles, so the write's
	// round trip outlasts the 512-cycle retransmit timeout.
	r := newFaultyRig(t, 2, 1, mesh.FaultConfig{Seed: 1, DelayRate: 1, DelayMax: 4096})
	frames := r.page(0)
	w := replayWrite{r, addrFor(frames, 0, 1, 3)}
	e := r.eng
	e.SetLane(1)
	e.ScheduleEvent(10, fnSink{}, 0, func() { e.Defer(w, 0, nil) })
	(&sim.ShardSet{Engines: []*sim.Engine{e}, Window: 12}).Run()
	if r.st.Retransmits == 0 {
		t.Fatal("the timer armed at the barrier never fired live")
	}
	e.SetLane(sim.NoLane)
	if _, drawn := e.DrawKey(); drawn != 0 {
		t.Errorf("%d keys drawn from the engine's NoLane counter", drawn)
	}
}

// fnSink is the tests' event sink: each event runs the func() it
// carries as data.
type fnSink struct{}

func (fnSink) HandleEvent(_ int, data any) { data.(func())() }

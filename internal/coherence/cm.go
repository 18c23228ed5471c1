// Package coherence implements the PLUS memory-coherence manager: the
// per-node hardware module (Xilinx PLDs in the 1990 implementation)
// that performs global memory mapping, the non-demand write-update
// coherence protocol over replicated pages, and the delayed
// (split-transaction) read-modify-write operations.
//
// Protocol summary (§2.3 of the paper):
//
//   - Writes are always performed first on the master copy and then
//     propagated down the ordered copy-list; the last copy returns an
//     acknowledgement to the originating processor. Copies of a given
//     location are therefore always written in the same order
//     (general coherence).
//   - Writes do not block the issuing processor; the pending-writes
//     cache (8 entries) remembers incomplete writes. The processor
//     blocks on a 9th outstanding write, on reading a location with a
//     pending write, and on an explicit fence.
//   - Delayed operations are issued to the master copy, executed there
//     atomically, and the old value returns to the originator's
//     delayed-operations cache (8 entries); modifications propagate
//     down the copy-list like writes.
//
// Message plumbing: every protocol hop travels in a pooled mesh.Msg.
// A request that must be forwarded (write/RMW toward the master, an
// update down the copy-list) reuses the message in hand — the protocol
// allocates at most one pooled message per operation leg, and the
// final consumer recycles it to the mesh free-list.
package coherence

import (
	"fmt"
	"slices"

	"plus/internal/cache"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// CM event kinds (sim.EventSink dispatch). The CM schedules its own
// timers — per-hop processing delay, RMW execution, page-copy
// completion, local read latency — as typed events carrying the pooled
// message (or a pooled readDone), so the protocol's timer path
// allocates nothing.
const (
	// ckProcess: a network message begins handling after the CM's
	// per-hop processing time. data is the *mesh.Msg.
	ckProcess = iota
	// ckSend: a pre-staged message (Dst already set) enters the
	// network after a processor-side overhead. data is the *mesh.Msg.
	ckSend
	// ckExec: the master executes a delayed operation after its
	// documented execution time. data is the kRMWReq *mesh.Msg.
	ckExec
	// ckPageDone: the page-copy engine signals completion. data is the
	// kPageCopy *mesh.Msg.
	ckPageDone
	// ckReadDone: a local read completes after the cache/memory
	// latency. data is a pooled *readDone.
	ckReadDone
	// ckRetrans: the reliability sublayer's retransmit timer for one
	// destination fires. data is a pooled *retransTimer.
	ckRetrans
)

// readDone is a pooled local-read completion: the value and the
// processor-side callback it is delivered to.
type readDone struct {
	fn func(memory.Word)
	v  memory.Word
}

// CM is one node's memory-coherence manager. It is driven entirely
// from the simulation engine's single logical thread: processor-side
// calls happen inside a coroutine slice, network messages arrive
// through the mesh Port interface, timers fire as typed engine events.
// Completion callbacks may fire synchronously (when the operation
// completes without waiting) or from a later engine event.
type CM struct {
	self mesh.NodeID
	eng  *sim.Engine
	net  *mesh.Mesh
	mem  *memory.Memory
	ca   *cache.Cache
	tm   timing.Timing
	st   *stats.Machine

	// frames is the master and next-copy tables, indexed by local frame
	// like the hardware's direct-mapped SRAM: each locally present
	// frame's master copy and copy-list successor. Maintained by the
	// operating system (kernel package); consulted by the write/RMW
	// routing hardware. Frames come densely from Memory.AllocFrame.
	frames []frameEntry

	// Pending-writes cache: at most MaxPendingWrites entries, in no
	// particular order (retirement swap-removes).
	pending      []pendingWrite
	nextID       uint64
	writeWaiters []func()
	// fenceWaiters wait for the pending-writes cache to drain;
	// fenceSpare is the buffer the next drain swaps in (a waiter may
	// fence again while the list runs).
	fenceWaiters []func()
	fenceSpare   []func()
	readRetry    map[GAddr][]func()

	// Write-combining stage (batch.go), which every write passes
	// through: the combine buffer holds up to batchMax consecutive
	// writes to one (node, page) destination until a flush trigger
	// sends them as one multi-word kWriteReq. Every buffered word
	// already owns a pending-writes entry, so MaxPendingWrites and the
	// read-blocking rule see combined writes exactly like uncombined
	// ones. batchIDs maps a flushed batch's lead pending id to every
	// member id so one ack retires the whole batch; idsFree recycles
	// those slices.
	batchMax int
	bnode    mesh.NodeID
	bpage    memory.PPage
	bcause   uint64
	bwrites  []wordWrite
	bids     []uint64
	batchIDs map[uint64][]uint64
	idsFree  [][]uint64

	// Delayed-operations cache.
	slots       []dslot
	slotWaiters []func()

	// Outstanding remote blocking reads, in issue order.
	readWaiters []readWaiter

	// rdFree recycles local-read completions.
	rdFree []*readDone

	// Reliability sublayer (unreliable-network mode; see transport.go).
	// reliable is set when the mesh fault model is enabled; tx/rx hold
	// the per-peer sequence state and rtFree recycles timer payloads.
	reliable bool
	tx       []txState
	rx       []rxState
	rtFree   []*retransTimer

	// Crash/failover state (crash.go). crashy is set only when the run
	// has a crash script; every tolerance it arms is unreachable — and
	// every protocol panic stays loud — on ordinary runs.
	crashy  bool
	down    bool
	router  FailoverRouter
	slotGen uint64

	// wake hands an arriving kWake's thread ID to the processor (OnWake).
	wake func(id uint64)

	// Write-invalidate ablation mode (see invalidate.go). Real PLUS is
	// write-update; this exists to measure the §2.2 claim.
	invalidateMode bool
	invalid        map[memory.PPage]map[uint32]bool
}

type dslot struct {
	busy   bool
	ready  bool
	val    memory.Word
	waiter func(memory.Word)
	// issuedAt/cause are set at issue when an observer is attached.
	// cause lives until the slot is released, so the data-access layer
	// can pair the Verify that consumes the result with the issue
	// (EvAccVerify ↔ EvAccRMW).
	issuedAt sim.Cycles
	cause    uint64
	// Replay record (crash script runs): enough to re-issue the
	// operation if its request is lost inside a crashed node. gen is
	// the slot-generation token guarding against stale replies to a
	// reused slot (see slotToken).
	op      uint8
	g       GAddr
	operand memory.Word
	pid     uint64
	gen     uint64
}

// frameEntry is one local frame's row of the master and next-copy
// tables; present is false for a frame never installed, dropped, or
// wiped by a crash restart.
type frameEntry struct {
	master, next memory.GPage
	present      bool
}

// pendingWrite is one pending-writes cache entry: the write's id and
// the word it writes. at/cause are set at issue when an observer is
// attached (cause != 0 marks a traced write, whose ack is timed).
type pendingWrite struct {
	id    uint64
	g     GAddr
	at    sim.Cycles
	cause uint64
}

// readWaiter is one outstanding remote blocking read: its id, the
// completion callback, and the target address, kept so a crash epoch
// can re-issue the read against the page's new master. at/cause are
// set at issue when an observer is attached (cause != 0 marks a traced
// read, whose reply is timed).
type readWaiter struct {
	id    uint64
	g     GAddr
	fn    func(memory.Word)
	at    sim.Cycles
	cause uint64
}

// New wires a coherence manager to its node's memory, cache and the
// mesh. It attaches itself as the node's message port.
func New(self mesh.NodeID, eng *sim.Engine, net *mesh.Mesh, mem *memory.Memory, ca *cache.Cache, tm timing.Timing, st *stats.Machine) *CM {
	cm := &CM{
		self:     self,
		eng:      eng,
		net:      net,
		mem:      mem,
		ca:       ca,
		tm:       tm,
		st:       st,
		nextID:   1,
		slots:    make([]dslot, tm.MaxDelayedOps),
		batchMax: tm.MaxBatchWrites,
	}
	if cm.batchMax < 1 {
		cm.batchMax = 1 // zero-valued Timing tables mean "no combining"
	}
	if cm.batchMax > 1 {
		cm.batchIDs = make(map[uint64][]uint64)
	}
	if net.Config().Faults.Enabled() {
		cm.reliable = true
		cm.tx = make([]txState, net.Nodes())
		cm.rx = make([]rxState, net.Nodes())
	}
	if len(net.Config().Faults.Crashes) > 0 {
		cm.crashy = true
	}
	net.Attach(self, cm)
	return cm
}

// node returns this node's stats block.
func (cm *CM) node() *stats.Node { return &cm.st.Nodes[cm.self] }

// obs returns the structured-event observer, or nil when tracing is
// off — the single gate every emission site checks.
func (cm *CM) obs() *stats.Observer { return cm.st.Observer() }

// packAddr encodes a global address into one event payload word.
func packAddr(g GAddr) uint64 {
	return uint64(g.Node)<<48 | uint64(g.Page)<<16 | uint64(g.Off)
}

// newMsg draws a cleared message from this node's shard free-list.
func (cm *CM) newMsg(kind uint8, origin mesh.NodeID, id uint64) *mesh.Msg {
	m := cm.net.AllocMsgAt(cm.self)
	m.Kind, m.Origin, m.ID = kind, origin, id
	return m
}

// freeMsg recycles a consumed message onto this node's shard free-list.
func (cm *CM) freeMsg(m *mesh.Msg) { cm.net.FreeMsgAt(cm.self, m) }

// OnWake installs the processor-side handler for arriving wakes: fn
// receives the ID of the thread to wake on this node.
func (cm *CM) OnWake(fn func(id uint64)) { cm.wake = fn }

// SendWake carries a wake_up() for thread id to its node dst as a
// 1-flit kWake. Like an ack it charges no CM processing time at either
// end: the network latency is the whole cost.
func (cm *CM) SendWake(dst mesh.NodeID, id uint64) {
	cm.send(dst, cm.newMsg(kWake, cm.self, id))
}

// --- Kernel-side table maintenance -----------------------------------

// InstallPage registers a locally present frame with its master and
// successor, making the replication structure visible to the hardware
// via the master and next-copy tables (§2.3).
func (cm *CM) InstallPage(frame memory.PPage, master, next memory.GPage) {
	if n := int(frame) + 1; n > len(cm.frames) {
		cm.frames = append(cm.frames, make([]frameEntry, n-len(cm.frames))...)
	}
	cm.frames[frame] = frameEntry{master: master, next: next, present: true}
}

// entry returns a frame's table row; ok is false when the frame is not
// installed (the row is then the zero entry).
func (cm *CM) entry(frame memory.PPage) (e frameEntry, ok bool) {
	if uint(frame) < uint(len(cm.frames)) {
		e = cm.frames[frame]
	}
	return e, e.present
}

// installed returns a present frame's row for rewriting, panicking
// with op's name on an uninstalled frame.
func (cm *CM) installed(op string, frame memory.PPage) *frameEntry {
	if _, ok := cm.entry(frame); !ok {
		panic(fmt.Sprintf("coherence: %s of uninstalled frame %d on node %d", op, frame, cm.self))
	}
	return &cm.frames[frame]
}

// SetNext rewrites the successor of a local frame (copy-list splice).
func (cm *CM) SetNext(frame memory.PPage, next memory.GPage) {
	cm.installed("SetNext", frame).next = next
}

// SetMaster rewrites the master pointer of a local frame (used when
// the master migrates).
func (cm *CM) SetMaster(frame memory.PPage, master memory.GPage) {
	cm.installed("SetMaster", frame).master = master
}

// DropPage removes a frame's coherence tables (copy deletion).
func (cm *CM) DropPage(frame memory.PPage) {
	if uint(frame) < uint(len(cm.frames)) {
		cm.frames[frame] = frameEntry{}
	}
}

// Master returns the master pointer for a local frame.
func (cm *CM) Master(frame memory.PPage) (memory.GPage, bool) {
	e, ok := cm.entry(frame)
	return e.master, ok
}

// Next returns the copy-list successor for a local frame.
func (cm *CM) Next(frame memory.PPage) (memory.GPage, bool) {
	e, ok := cm.entry(frame)
	return e.next, ok
}

// PendingCount returns the number of incomplete writes (pending-writes
// cache occupancy).
func (cm *CM) PendingCount() int { return len(cm.pending) }

// writePending reports whether a pending-writes entry covers g: the
// read-blocking check of §2.3.
func (cm *CM) writePending(g GAddr) bool {
	for i := range cm.pending {
		if cm.pending[i].g == g {
			return true
		}
	}
	return false
}

// pendingIndex returns the position of write id in the pending-writes
// cache, or -1.
func (cm *CM) pendingIndex(id uint64) int {
	for i := range cm.pending {
		if cm.pending[i].id == id {
			return i
		}
	}
	return -1
}

// readWaiterIndex returns the position of remote read id among the
// outstanding reads, or -1.
func (cm *CM) readWaiterIndex(id uint64) int {
	for i := range cm.readWaiters {
		if cm.readWaiters[i].id == id {
			return i
		}
	}
	return -1
}

// dropReadWaiter removes outstanding read i and returns it.
func (cm *CM) dropReadWaiter(i int) readWaiter {
	w := cm.readWaiters[i]
	cm.readWaiters = slices.Delete(cm.readWaiters, i, i+1)
	return w
}

// SlotCause returns the causal ID a busy delayed-operation slot was
// issued under (0 with tracing off). It survives result arrival, so
// Verify can pair its access event with the issue; it dies only when
// the slot is released.
func (cm *CM) SlotCause(slot int) uint64 { return cm.slots[slot].cause }

// BusySlots returns the number of delayed-operation cache entries in
// use.
func (cm *CM) BusySlots() int {
	n := 0
	for i := range cm.slots {
		if cm.slots[i].busy {
			n++
		}
	}
	return n
}

// --- Processor-side operations ---------------------------------------

// Read performs a (possibly blocking) read. done receives the value;
// completion is always delivered through an engine event, never
// synchronously, so the calling coroutine can park unconditionally
// after issuing. Read returns the causal ID a traced remote read (an
// invalidated word's refetch included) drew, and 0 for a local read, a
// read waiting behind a pending write of its word, or any read with
// tracing off.
func (cm *CM) Read(g GAddr, done func(memory.Word)) uint64 {
	// Reads are combine barriers: any read issued by this node flushes
	// the combine buffer (batch.go). In particular a read of a word
	// still resting in the buffer would otherwise block below on a
	// write that was never sent.
	cm.FlushBatch()
	// Reading a location that is currently being written blocks until
	// the write completes (intra-processor strong ordering, §2.3).
	if cm.writePending(g) {
		if cm.readRetry == nil {
			cm.readRetry = make(map[GAddr][]func())
		}
		cm.readRetry[g] = append(cm.readRetry[g], func() { cm.Read(g, done) })
		return 0
	}
	if g.Node == cm.self {
		if cm.invalidateMode && cm.isInvalid(g.Page, g.Off) {
			return cm.readInvalidated(g, done)
		}
		cost := cm.ca.Read(g.Page, g.Off)
		v := cm.mem.Read(g.Page, g.Off)
		cm.node().LocalReads++
		if cost <= timing.CacheHit {
			cm.node().CacheHits++
		} else {
			cm.node().CacheMisses++
		}
		cm.scheduleReadDone(cost, done, v)
		return 0
	}
	return cm.remoteRead(g, done)
}

// remoteRead issues a blocking read of g from the node holding it.
// The paper charges "about 32 cycles plus the round-trip delay" for a
// remote blocking read; the 32 cycles are the processor and interface
// overhead, charged here before the request enters the network. The
// serving CM adds its processing time on arrival. It returns the
// read's causal ID (0 with tracing off).
func (cm *CM) remoteRead(g GAddr, done func(memory.Word)) uint64 {
	cm.node().RemoteReads++
	id := cm.nextID
	cm.nextID++
	m := cm.newMsg(kReadReq, cm.self, id)
	m.Page, m.Off = g.Page, g.Off
	m.Dst = g.Node
	w := readWaiter{id: id, g: g, fn: done}
	if o := cm.obs(); o != nil {
		m.Cause = o.CauseFor(int(cm.self))
		w.at, w.cause = cm.eng.Now(), m.Cause
		o.Emit(stats.EvReadIssue, int(cm.self), 0, m.Cause, packAddr(g), 0)
	}
	cm.readWaiters = append(cm.readWaiters, w)
	cm.eng.ScheduleEvent(timing.RemoteReadOverhead, cm, ckSend, m)
	return m.Cause
}

// scheduleReadDone delivers a local read's value through a pooled
// completion event after the modeled latency.
func (cm *CM) scheduleReadDone(delay sim.Cycles, fn func(memory.Word), v memory.Word) {
	var rd *readDone
	if n := len(cm.rdFree); n > 0 {
		rd = cm.rdFree[n-1]
		cm.rdFree = cm.rdFree[:n-1]
	} else {
		rd = &readDone{}
	}
	rd.fn, rd.v = fn, v
	cm.eng.ScheduleEvent(delay, cm, ckReadDone, rd)
}

// Write issues a non-blocking write. accepted is called as soon as a
// pending-writes cache entry is allocated — synchronously when one is
// free, otherwise from a later event once an earlier write completes.
// The write then rests in the combine buffer (batch.go) until a flush
// trigger sends it — at once at the default depth of one word — and
// propagates in the background; completion is visible through Fence,
// PendingCount, and the read-blocking rule. Write returns the causal
// ID of the batch the write joined, and 0 with tracing off or when the
// write waits for a free pending-writes entry (its retry draws the ID
// later, out of the caller's reach).
func (cm *CM) Write(g GAddr, v memory.Word, accepted func()) uint64 {
	if len(cm.pending) >= cm.tm.MaxPendingWrites {
		// The cache is full: flush the combine buffer first, or the
		// acks that free an entry (and wake this waiter) never happen.
		cm.FlushBatch()
		cm.writeWaiters = append(cm.writeWaiters, func() { cm.Write(g, v, accepted) })
		return 0
	}
	cm.countWrite(g)
	if len(cm.bwrites) > 0 && (g.Node != cm.bnode || g.Page != cm.bpage) {
		cm.FlushBatch()
	}
	id := cm.allocPending(g)
	accepted()
	if len(cm.bwrites) == 0 {
		cm.bnode, cm.bpage = g.Node, g.Page
		if o := cm.obs(); o != nil {
			// One causal ID spans the whole batch: every member's issue
			// and ack events, and the combined message across its hops,
			// share it.
			cm.bcause = o.CauseFor(int(cm.self))
		}
	} else {
		cm.node().CoalescedWrites++
	}
	cm.bids = append(cm.bids, id)
	cm.bwrites = append(cm.bwrites, wordWrite{Off: g.Off, Val: v})
	if o := cm.obs(); o != nil {
		pw := &cm.pending[cm.pendingIndex(id)]
		pw.at, pw.cause = cm.eng.Now(), cm.bcause
		o.Emit(stats.EvWriteIssue, int(cm.self), 0, cm.bcause, packAddr(g), id)
	}
	cause := cm.bcause
	if len(cm.bwrites) >= cm.batchMax {
		cm.FlushBatch()
	}
	return cause
}

// countWrite attributes an issued write to the local/remote counters.
// A write counts as local only when it completes entirely in local
// memory: the master copy is here and the page has no other copies to
// update. Writes to replicated pages generate network traffic however
// they are issued, which is what the paper's Table 2-1 write ratio
// measures.
func (cm *CM) countWrite(g GAddr) {
	if g.Node == cm.self && cm.completesLocally(g.Page) {
		cm.node().LocalWrites++
	} else {
		cm.node().RemoteWrites++
	}
}

// Fence blocks until every earlier write by this node has completed
// (the pending-writes cache is empty). done may be invoked
// synchronously when there is nothing outstanding.
func (cm *CM) Fence(done func()) {
	cm.FlushBatch() // buffered writes count as "earlier writes"
	cm.node().Fences++
	if len(cm.pending) == 0 {
		done()
		return
	}
	cm.fenceWaiters = append(cm.fenceWaiters, done)
}

// RMW issues a delayed operation. issued is called (synchronously when
// resources are free) once a delayed-operations cache slot — and, for
// mutating ops, a pending-writes entry — has been allocated; the slot
// index it receives is the operation identifier the program later
// passes to Verify. The paper's cost anatomy: the ~25-cycle issue time
// is charged by the processor layer, the master's 39/52-cycle
// execution by this package, the ~10-cycle result read at Verify.
func (cm *CM) RMW(op Op, g GAddr, operand memory.Word, issued func(slot int)) {
	// Delayed operations execute at the master: flush the combine
	// buffer first so a buffered write to the same location cannot be
	// overtaken by the RMW (per-pair FIFO then orders them).
	cm.FlushBatch()
	slot := cm.freeSlot()
	if slot < 0 {
		cm.slotWaiters = append(cm.slotWaiters, func() { cm.RMW(op, g, operand, issued) })
		return
	}
	var pid uint64
	if !op.IsRead() {
		if len(cm.pending) >= cm.tm.MaxPendingWrites {
			cm.writeWaiters = append(cm.writeWaiters, func() { cm.RMW(op, g, operand, issued) })
			return
		}
		pid = cm.allocPending(g)
	}
	cm.slotGen++
	s := &cm.slots[slot]
	*s = dslot{} // zeroed in place, then set field by field
	s.busy, s.op, s.g, s.operand, s.pid, s.gen = true, uint8(op), g, operand, pid, cm.slotGen
	cm.node().RMWIssued++
	// Local/remote accounting: a mutating RMW counts as a write.
	// Delayed-read counts as a read, local when the master is here.
	if !op.IsRead() {
		cm.countWrite(g)
	} else if e, ok := cm.entry(g.Page); ok && g.Node == cm.self && e.master.Node == cm.self {
		cm.node().LocalReads++
	} else {
		cm.node().RemoteReads++
	}
	issued(slot)
	m := cm.newMsg(kRMWReq, cm.self, cm.slotToken(slot))
	m.Pid = pid
	m.Op = uint8(op)
	m.Page, m.Off, m.Val = g.Page, g.Off, operand
	if o := cm.obs(); o != nil {
		m.Cause = o.CauseFor(int(cm.self))
		s.issuedAt, s.cause = cm.eng.Now(), m.Cause
		o.Emit(stats.EvRMWIssue, int(cm.self), uint8(op), m.Cause, packAddr(g), uint64(operand))
	}
	cm.handOff(g.Node, m)
}

// Verify retrieves a delayed operation's result, blocking until it is
// available. The slot is freed when the result is consumed. done may
// fire synchronously if the result has already arrived.
func (cm *CM) Verify(slot int, done func(memory.Word)) {
	cm.FlushBatch() // verify is an ordering point like fence (§2.3)
	s := &cm.slots[slot]
	if !s.busy {
		panic(fmt.Sprintf("coherence: Verify of free slot %d on node %d", slot, cm.self))
	}
	if s.ready {
		v := s.val
		cm.releaseSlot(slot)
		done(v)
		return
	}
	if s.waiter != nil {
		panic(fmt.Sprintf("coherence: second Verify of slot %d on node %d", slot, cm.self))
	}
	s.waiter = done
}

// TryVerify inspects a delayed-operation slot without blocking: if the
// result has arrived it is returned (and the slot freed); otherwise
// ok is false. The paper notes software can inspect the status of
// delayed-operation cache locations to implement non-blocking reads.
func (cm *CM) TryVerify(slot int) (memory.Word, bool) {
	cm.FlushBatch()
	s := &cm.slots[slot]
	if !s.busy || !s.ready {
		return 0, false
	}
	v := s.val
	cm.releaseSlot(slot)
	return v, true
}

// PageCopy snapshots local frame src and ships it to dst, whose CM
// installs it and then invokes done. Used by the kernel's replication
// path after the new copy has been linked into the copy-list, so
// concurrent writes flow through the new copy while the bulk data is
// in flight (§2.4). Per-pair FIFO delivery makes the result coherent
// only while the target's predecessor stays the sender: a copy linked
// in front of the target mid-copy forwards updates over another pair,
// which a delayed snapshot can overwrite (ROADMAP item 1(a)).
func (cm *CM) PageCopy(src memory.PPage, dst memory.GPage, done func()) {
	if dst.Node == cm.self {
		panic("coherence: PageCopy to self")
	}
	m := cm.newMsg(kPageCopy, cm.self, 0)
	m.Page = dst.Page
	m.Data = cm.mem.Snapshot(src, m.Data[:0])
	m.Done = done
	if o := cm.obs(); o != nil {
		m.Cause = o.CauseFor(int(cm.self))
		o.Emit(stats.EvPageCopy, int(cm.self), 0, m.Cause, uint64(dst.Node), uint64(dst.Page))
	}
	cm.send(dst.Node, m)
}

// --- Internal machinery ------------------------------------------------

// completesLocally reports whether a write to the given local frame
// finishes without any network traffic: master here and no copy-list
// successor.
func (cm *CM) completesLocally(frame memory.PPage) bool {
	e, ok := cm.entry(frame)
	return ok && e.master.Node == cm.self && e.next.IsNil()
}

func (cm *CM) allocPending(g GAddr) uint64 {
	id := cm.nextID
	cm.nextID++
	cm.pending = append(cm.pending, pendingWrite{id: id, g: g})
	return id
}

func (cm *CM) freeSlot() int {
	for i := range cm.slots {
		if !cm.slots[i].busy {
			return i
		}
	}
	return -1
}

func (cm *CM) releaseSlot(slot int) {
	cm.slots[slot] = dslot{}
	if len(cm.slotWaiters) > 0 {
		w := cm.slotWaiters[0]
		cm.slotWaiters = popFront(cm.slotWaiters)
		w()
	}
}

// finishWrite retires a pending-writes entry and wakes whoever the
// retirement unblocks: readers of that address, one writer waiting for
// a free entry, and — when the cache drains — fence waiters.
func (cm *CM) finishWrite(id uint64) {
	i := cm.pendingIndex(id)
	if i < 0 {
		if cm.crashy {
			// The entry was force-retired by a crash epoch and the
			// chain's real ack arrived later (the chain survived after
			// all). Harmless: retirement already woke the waiters.
			cm.st.StaleAcks++
			return
		}
		panic(fmt.Sprintf("coherence: ack for unknown write %d on node %d", id, cm.self))
	}
	pw := cm.pending[i]
	if pw.cause != 0 {
		lat := uint64(cm.eng.Now() - pw.at)
		o := cm.obs()
		o.Metrics.WriteAck.Observe(lat)
		o.Emit(stats.EvWriteAck, int(cm.self), 0, pw.cause, lat, id)
	}
	g := pw.g
	last := len(cm.pending) - 1
	cm.pending[i] = cm.pending[last]
	cm.pending = cm.pending[:last]
	if len(cm.readRetry) > 0 && !cm.writePending(g) {
		if rs := cm.readRetry[g]; len(rs) > 0 {
			delete(cm.readRetry, g)
			for _, r := range rs {
				r()
			}
		}
	}
	if len(cm.writeWaiters) > 0 {
		w := cm.writeWaiters[0]
		cm.writeWaiters = popFront(cm.writeWaiters)
		w()
	}
	if len(cm.pending) == 0 && len(cm.fenceWaiters) > 0 {
		ws := cm.fenceWaiters
		cm.fenceWaiters, cm.fenceSpare = cm.fenceSpare[:0], nil
		for _, w := range ws {
			w()
		}
		clear(ws)
		cm.fenceSpare = ws[:0]
	}
}

// popFront drops a waiter list's first entry. It copies the rest down
// rather than re-slice: re-slicing walks the list off its backing
// array, and the next append reallocates.
func popFront(ws []func()) []func() {
	n := copy(ws, ws[1:])
	ws[n] = nil
	return ws[:n]
}

// applyWrites performs committed word writes on a local frame. The
// bus snoop that keeps the processor cache current leaves every tag in
// place, so it costs nothing the cache model charges.
func (cm *CM) applyWrites(frame memory.PPage, ws []wordWrite) {
	for _, w := range ws {
		cm.mem.Write(frame, w.Off, w.Val)
	}
}

// arrive handles a kWriteReq or kRMWReq that has reached this node
// (from the local processor or the network): forward the message to
// the page's master copy unless that is here. At the master a write
// commits its Writes vector (a single word, or a combined batch) and
// the request turns in place into the update that walks the
// copy-list; a delayed operation executes after its documented
// execution time (Table 3-1: 39 or 52 cycles).
func (cm *CM) arrive(m *mesh.Msg) {
	e, ok := cm.entry(m.Page)
	if !ok {
		if cm.crashy {
			cm.orphanRequest(m)
			return
		}
		panic(fmt.Sprintf("coherence: request kind %d to uninstalled frame %d on node %d", m.Kind, m.Page, cm.self))
	}
	mg := e.master
	m.Page = mg.Page
	if mg.Node != cm.self {
		cm.send(mg.Node, m)
		return
	}
	if m.Kind == kRMWReq {
		cm.eng.ScheduleEvent(Op(m.Op).ExecCycles(), cm, ckExec, m)
		return
	}
	cm.applyWrites(mg.Page, m.Writes)
	cm.propagate(mg.Page, m)
}

// handOff delivers request m to node dst: it arrives here when dst is
// this node, else it travels over the mesh.
func (cm *CM) handOff(dst mesh.NodeID, m *mesh.Msg) {
	if dst == cm.self {
		cm.arrive(m)
		return
	}
	cm.send(dst, m)
}

// propagate continues a committed modification down the copy-list, or
// completes the operation if this copy is the last. It consumes m:
// either forwarding it as the next kUpdate hop, returning it to the
// originator as the kAck, or recycling it.
func (cm *CM) propagate(frame memory.PPage, m *mesh.Msg) {
	e, ok := cm.entry(frame)
	nxt := e.next
	if !ok {
		if cm.crashy {
			// The frame was dropped by a failover between apply and
			// propagate: treat this copy as the end of the chain (the
			// kernel's resync cascade restores any downstream copies).
			cm.st.CrashOrphans++
			nxt = memory.NilGPage
		} else {
			panic(fmt.Sprintf("coherence: no next-copy entry for frame %d on node %d", frame, cm.self))
		}
	}
	if !nxt.IsNil() {
		m.Kind = kUpdate
		m.Page = nxt.Page
		cm.send(nxt.Node, m)
		return
	}
	cm.ackOrigin(m) // last copy
}

// ackOrigin finishes a modification with its message in hand: it
// retires the originator's pending-writes entry here, or turns m into
// the kAck that carries the completion to the originating node.
func (cm *CM) ackOrigin(m *mesh.Msg) {
	if m.ID == 0 {
		cm.freeMsg(m) // operation carried no pending-writes entry
		return
	}
	if m.Origin == cm.self {
		id := m.ID
		cm.freeMsg(m)
		cm.retireWrite(id)
		return
	}
	m.Kind = kAck
	cm.send(m.Origin, m)
}

// execRMW is the master-side execution of a delayed operation (fired
// by ckExec). The reply goes out first, then the modification walks
// the copy-list in the message in hand; m.ID is the originator's slot,
// m.Pid its pending-writes entry (0 for delayed-read).
func (cm *CM) execRMW(m *mesh.Msg) {
	result, ws := exec(Op(m.Op), cm.mem, m.Page, m.Off, m.Val, timing.MaxQueueSize, m.Writes[:0])
	m.Writes = ws
	cm.applyWrites(m.Page, ws)
	cm.node().RMWExecuted++
	if o := cm.obs(); o != nil {
		o.Emit(stats.EvRMWExec, int(cm.self), m.Op, m.Cause, uint64(m.Page), uint64(len(ws)))
	}
	e, _ := cm.entry(m.Page)
	nxt := e.next
	// The reply completes the operation outright when nothing needs
	// propagating (no modification, or the master is the only copy).
	complete := len(ws) == 0 || nxt.IsNil()
	origin, slotID, pid, cause := m.Origin, m.ID, m.Pid, m.Cause
	if origin == cm.self {
		if slot, ok := cm.slotFromToken(slotID); ok {
			cm.fillSlot(slot, result)
		} else {
			cm.st.StaleAcks++ // re-issued op already resolved this slot
		}
		if complete {
			cm.retireWrite(pid)
		}
	} else {
		r := cm.newMsg(kRMWReply, origin, slotID)
		r.Pid, r.Val, r.Complete = pid, result, complete
		r.Cause = cause
		cm.send(origin, r)
	}
	if len(ws) > 0 && !nxt.IsNil() {
		m.Kind = kUpdate
		m.ID = pid
		m.Page = nxt.Page
		cm.send(nxt.Node, m)
	} else {
		cm.freeMsg(m)
	}
}

// fillSlot stores a delayed operation's result in a busy slot (one
// slotFromToken accepted) and hands it to a waiting Verify, if any.
func (cm *CM) fillSlot(slot int, v memory.Word) {
	s := &cm.slots[slot]
	// Observe the round trip exactly once, when the result first
	// arrives (duplicated replies in the unreliable mode are filtered by
	// the transport before this point).
	if o := cm.obs(); o != nil && !s.ready {
		lat := uint64(cm.eng.Now() - s.issuedAt)
		o.Metrics.RMWRound.Observe(lat)
		o.Emit(stats.EvRMWDone, int(cm.self), 0, s.cause, lat, uint64(slot))
	}
	if w := s.waiter; w != nil {
		cm.releaseSlot(slot)
		w(v)
		return
	}
	s.ready = true
	s.val = v
}

// send routes a protocol message over the mesh, counting it by type.
func (cm *CM) send(dst mesh.NodeID, m *mesh.Msg) {
	if dst == cm.self {
		panic(fmt.Sprintf("coherence: self-send of kind %d on node %d", m.Kind, cm.self))
	}
	switch m.Kind {
	case kReadReq:
		cm.st.MsgRead++
	case kReadReply:
		cm.st.MsgReadRep++
	case kWriteReq:
		cm.st.MsgWrite++
	case kUpdate:
		cm.st.MsgUpdate++
	case kAck:
		cm.st.MsgAck++
	case kRMWReq:
		cm.st.MsgRMW++
	case kRMWReply:
		cm.st.MsgRMWRep++
	case kPageCopy:
		cm.st.MsgPage++
	case kTAck:
		cm.st.MsgTAck++
	case kWake:
		cm.st.MsgWake++
	}
	if cm.reliable && m.Kind != kTAck {
		cm.transportSend(dst, m)
		return
	}
	cm.net.Send(cm.self, dst, flits(m), m)
}

// Deliver implements mesh.Port: protocol messages arriving at this
// node. Requests incur the CM's per-hop processing time before acting;
// acks, replies and wakes act immediately (the handling cost of acks
// and replies is folded into the originator-side constants).
func (cm *CM) Deliver(m *mesh.Msg) {
	if cm.down {
		// Traffic arriving after the scripted restart instant but before
		// the restart lands at the barrier: the sender retransmits it.
		cm.freeMsg(m)
		return
	}
	if m.Nacked {
		// Bounced by a full link buffer before ever leaving this node.
		cm.transportNack(m)
		return
	}
	if cm.reliable {
		if m.Kind == kTAck {
			cm.transportAck(m)
			return
		}
		if !cm.transportAccept(m) {
			return
		}
	}
	switch m.Kind {
	case kReadReq, kWriteReq, kUpdate, kRMWReq:
		cm.eng.ScheduleEvent(timing.CMProcess, cm, ckProcess, m)
	case kReadReply:
		i := cm.readWaiterIndex(m.ID)
		if i < 0 {
			if cm.crashy {
				// A reply to a read the crash epoch already re-issued
				// and resolved (or force-completed).
				cm.st.StaleAcks++
				cm.freeMsg(m)
				return
			}
			panic(fmt.Sprintf("coherence: read reply for unknown id %d on node %d", m.ID, cm.self))
		}
		w := cm.dropReadWaiter(i)
		if w.cause != 0 {
			cm.obs().Emit(stats.EvReadDone, int(cm.self), 0, w.cause, uint64(cm.eng.Now()-w.at), 0)
		}
		v := m.Val
		cm.freeMsg(m)
		w.fn(v)
	case kAck:
		id := m.ID
		cm.freeMsg(m)
		cm.retireWrite(id)
	case kWake:
		id := m.ID
		cm.freeMsg(m)
		cm.wake(id)
	case kRMWReply:
		tok, pid, v, complete := m.ID, m.Pid, m.Val, m.Complete
		cm.freeMsg(m)
		slot, ok := cm.slotFromToken(tok)
		if !ok {
			// A reply for an operation a crash epoch re-issued and
			// resolved; its slot (possibly reused by a new op) must not
			// be corrupted by the stale result.
			cm.st.StaleAcks++
			return
		}
		cm.fillSlot(slot, v)
		if complete {
			cm.retireWrite(pid)
		}
	case kPageCopy:
		// Install the snapshot immediately: delivery is FIFO with the
		// updates the sender forwards after the snapshot, so applying
		// in arrival order keeps the new copy coherent while writes
		// overlap the copy (§2.4) — but only while the sender is still
		// this copy's predecessor. Updates from a copy linked in front
		// of it mid-copy travel another pair and can arrive first, and
		// this install then overwrites them (ROADMAP item 1(a)). The
		// copy engine's word time delays only the completion signal
		// (mapping switch).
		cm.mem.Install(m.Page, m.Data)
		cm.node().PagesCopied++
		cm.eng.ScheduleEvent(sim.Cycles(memory.PageWords)*timing.PageCopyPerWord, cm, ckPageDone, m)
	default:
		panic(fmt.Sprintf("coherence: unknown message kind %d", m.Kind))
	}
}

// HandleEvent implements sim.EventSink: the CM's typed timers, run as
// this node's activity even when armed during a barrier replay.
func (cm *CM) HandleEvent(kind int, data any) {
	cm.eng.SetLane(int32(cm.self))
	if cm.down {
		// A crashed node's in-flight work dies with it: requests being
		// processed, staged sends and executing RMWs are dropped.
		// ckReadDone and ckPageDone still fire (their completions only
		// queue a thread or signal the kernel's copy engine — the
		// processor stays paused either way), and ckRetrans timers were
		// cancelled by the epoch bump in Crash.
		switch kind {
		case ckProcess, ckSend, ckExec:
			cm.freeMsg(data.(*mesh.Msg))
			return
		}
	}
	switch kind {
	case ckProcess:
		cm.process(data.(*mesh.Msg))
	case ckSend:
		m := data.(*mesh.Msg)
		cm.send(m.Dst, m)
	case ckExec:
		cm.execRMW(data.(*mesh.Msg))
	case ckPageDone:
		m := data.(*mesh.Msg)
		done := m.Done
		cm.freeMsg(m)
		if done != nil {
			done()
		}
	case ckReadDone:
		rd := data.(*readDone)
		fn, v := rd.fn, rd.v
		rd.fn = nil
		cm.rdFree = append(cm.rdFree, rd)
		fn(v)
	case ckRetrans:
		cm.fireRetrans(data.(*retransTimer))
	default:
		panic(fmt.Sprintf("coherence: unknown event kind %d on node %d", kind, cm.self))
	}
}

// process handles a request message after the CM's per-hop processing
// delay.
func (cm *CM) process(m *mesh.Msg) {
	switch m.Kind {
	case kReadReq:
		if cm.invalidateMode && cm.isInvalid(m.Page, m.Off) {
			// Stale replica word: forward the request to the master
			// rather than serving old data.
			if e, ok := cm.entry(m.Page); ok && e.master.Node != cm.self {
				m.Page = e.master.Page
				cm.send(e.master.Node, m)
				return
			}
		}
		// Reuse the request as the reply.
		m.Val = cm.mem.Read(m.Page, m.Off)
		m.Kind = kReadReply
		cm.send(m.Origin, m)
	case kWriteReq, kRMWReq:
		cm.arrive(m)
	case kUpdate:
		if o := cm.obs(); o != nil {
			o.Emit(stats.EvUpdate, int(cm.self), 0, m.Cause, uint64(m.Page), uint64(len(m.Writes)))
		}
		if cm.invalidateMode {
			cm.applyInvalidations(m.Page, m.Writes)
		} else {
			cm.applyWrites(m.Page, m.Writes)
		}
		cm.node().Updates++
		cm.propagate(m.Page, m)
	default:
		panic(fmt.Sprintf("coherence: unexpected deferred message kind %d", m.Kind))
	}
}

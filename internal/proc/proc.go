// Package proc models the PLUS node processor (an M88000 in the 1990
// implementation) executing the threads of the single multithreaded
// application process.
//
// Application code is ordinary Go run as a simulation coroutine; every
// shared-memory operation goes through the node's coherence manager
// and charges the paper's cycle costs — the execution-driven
// methodology of §2.5. A processor runs one thread at a time; in the
// default mode a thread that blocks leaves the processor idle, while
// in SwitchOnSync mode (the context-switching alternative evaluated in
// Figure 3-1) the processor switches to another ready thread whenever
// a delayed operation is issued or the running thread blocks, paying a
// configurable switch cost.
package proc

import (
	"fmt"

	"plus/internal/coherence"
	"plus/internal/kernel"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/mmu"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// Mode selects the processor's reaction to latency.
type Mode int

const (
	// RunToBlock is the PLUS design point: the processor stays with
	// one thread; delayed operations hide latency, blocking operations
	// stall the processor.
	RunToBlock Mode = iota
	// SwitchOnSync simulates the context-switching alternative of
	// §3.3/§3.4: the processor switches threads every time a
	// synchronization (delayed) operation is issued, and whenever the
	// running thread blocks, paying SwitchCost cycles per dispatch.
	SwitchOnSync
)

// Proc is one node's processor: a scheduler over the node's threads.
type Proc struct {
	node  mesh.NodeID
	eng   *sim.Engine
	cm    *coherence.CM
	kern  *kernel.Kernel
	table *mmu.Table
	st    *stats.Machine

	mode       Mode
	switchCost sim.Cycles
	// fenceOnSync makes every delayed-operation issue wait for all of
	// the node's earlier writes first — the DASH-style "strong ordering
	// at synchronization time" that PLUS's explicit fence avoids (§2.1,
	// §2.3). Used by the ablation benches.
	fenceOnSync bool

	threads []*Thread
	ready   []*Thread
	current *Thread

	// down marks the processor crashed (fault injection): no thread is
	// dispatched and any running thread halts at its next memory
	// reference, parking on halted until Resume. In-progress pure
	// computation is allowed to finish — the simulated crash takes
	// effect at the processor's next interaction with the memory
	// system, which is the first point the coroutine yields anyway.
	down   bool
	halted []*Thread
}

// New builds a processor for node, running on the engine the mesh
// assigns that node, and installs it as the receiver of the wakes that
// reach cm.
func New(node mesh.NodeID, net *mesh.Mesh, cm *coherence.CM, kern *kernel.Kernel, table *mmu.Table, st *stats.Machine, mode Mode, switchCost sim.Cycles) *Proc {
	p := &Proc{
		node: node, eng: net.EngineFor(node), cm: cm, kern: kern, table: table,
		st: st, mode: mode, switchCost: switchCost,
	}
	cm.OnWake(func(id uint64) {
		for _, t := range p.threads {
			if uint64(t.id) == id {
				p.WakeThread(t)
				return
			}
		}
		panic(fmt.Sprintf("proc: wake for thread %d, not on node %d", id, node))
	})
	return p
}

// SetFenceOnSync enables the implicit-fence-before-every-sync ablation.
func (p *Proc) SetFenceOnSync(v bool) { p.fenceOnSync = v }

// Node returns the mesh node this processor occupies.
func (p *Proc) Node() mesh.NodeID { return p.node }

// Threads returns the threads spawned on this processor.
func (p *Proc) Threads() []*Thread { return p.threads }

func (p *Proc) nstat() *stats.Node { return &p.st.Nodes[p.node] }

// Observer returns the structured-event observer this processor's
// node emits to (the shard child on a sharded machine), or nil when
// tracing is off.
func (p *Proc) Observer() *stats.Observer { return p.st.Observer() }

// acc returns the observer when the data-access event layer is on —
// the single gate every EvAcc* emission in this package checks.
func (p *Proc) acc() *stats.Observer {
	if o := p.st.Observer(); o != nil && o.DataAccess() {
		return o
	}
	return nil
}

// tb packs a thread id above a 32-bit payload word — the B payload of
// every data-access event.
func tb(tid int, v memory.Word) uint64 { return uint64(tid)<<32 | uint64(uint32(v)) }

// tstate is a thread's scheduling state.
type tstate int

const (
	tReady    tstate = iota // runnable, waiting for the processor
	tRunning                // owns the processor
	tBlocked                // waiting for a memory operation
	tSleeping               // waiting for an explicit Wake
	tDone                   // body returned
)

// Thread is one application thread, bound to its processor for life
// (PLUS software pins threads; migration is by memory, not threads).
type Thread struct {
	id    int
	name  string
	proc  *Proc
	co    *sim.Coroutine
	state tstate
	// wakePending absorbs a Wake that races ahead of Sleep, the
	// classic lost-wakeup guard.
	wakePending bool
	// accSync marks the next Read/Write as a synchronization access
	// (set by ReadSync/WriteSync, consumed and cleared by Read/Write).
	// It only annotates the emitted data-access event — timing and
	// protocol behavior are identical to a plain access.
	accSync bool
	// idleDepth > 0 suspends useful-time accounting: operations issued
	// while polling for work are real processor activity but not the
	// "useful processor time" of the paper's utilization metric.
	idleDepth int

	// Reusable completion hooks, created once at Spawn. A thread has at
	// most one memory operation outstanding (it parks until completion),
	// so the hooks and their result fields can be shared by every
	// Read/Write/Fence/Issue/Verify — the per-operation closure the old
	// code allocated is gone from the hot path.
	opCompleted bool
	readVal     memory.Word
	slot        int // the delayed operation's slot: issuedDone's, or Verify's handle's
	opDone      func()
	readDone    func(memory.Word)
	issuedDone  func(int)

	// The thread is the sink of its own wakes (wake). step says
	// what the next wake runs: the body, or the next step of the
	// delayed operation under way, whose operands follow.
	step    step
	waking  bool // a wake is pending: guards against a double wake
	sync    bool // the operation continues from Issue into Verify (a *Sync wrapper)
	op      coherence.Op
	va      memory.VAddr
	g       coherence.GAddr
	operand memory.Word
	cause   uint64     // the verified slot's causal ID, read before cm.Verify frees it
	began   sim.Cycles // when the current stall began
	// resumes counts switches into the body and reached has bit s set
	// once step s has run: the tests pin one switch per delayed
	// operation and that their legs reach every step.
	resumes int
	reached uint16
}

// step is a stage of a delayed operation (§3.1) run in event context,
// from the thread's own wake, instead of on its coroutine. The body
// parks once per Issue, Verify or *Sync wrapper and resumes when the
// operation returns; every stage in between runs in the dispatch that
// would have resumed the body for it, so its draws and emissions fall
// in the same order.
type step uint8

const (
	stepBody          step = iota // resume the body
	stepIssue                     // charge the issue (DelayedIssue)
	stepRMW                       // hand the operation to the CM; stall while the delayed-operations cache is full
	stepRMWStalled                // end that stall
	stepIssued                    // EvAccRMW; in SwitchOnSync, requeue behind the ready list
	stepVerify                    // halt while the processor is down; cm.Verify; stall until the result is in
	stepVerifyStalled             // end that stall
	stepResult                    // charge the result read (ResultRead)
	stepVerified                  // EvAccVerify
	nSteps
)

// Handle identifies an in-flight delayed operation: the address of a
// location in the delayed-operations cache (a slot index here).
type Handle struct {
	slot int
	node mesh.NodeID
}

// Spawn creates a thread on this processor running body. It becomes
// runnable immediately (dispatched as soon as the processor is free).
// id must be unique machine-wide; name is diagnostic.
func (p *Proc) Spawn(id int, name string, body func(*Thread)) *Thread {
	t := &Thread{id: id, name: name, proc: p, state: tReady}
	t.opDone = func() {
		t.opCompleted = true
		if t.state == tBlocked {
			p.unblock(t)
		}
	}
	t.readDone = func(w memory.Word) { t.readVal = w; t.opDone() }
	t.issuedDone = func(slot int) { t.slot = slot; t.opDone() }
	prev := p.eng.Lane()
	p.eng.SetLane(int32(p.node)) // the coroutine's slices run on it
	t.co = sim.NewCoroutine(p.eng, name, func(*sim.Coroutine) {
		body(t)
		// A thread may exit with writes still resting in the combine
		// buffer (write combining, coherence/batch.go); flush so they
		// propagate and the machine can quiesce. No-op when combining
		// is off.
		p.cm.FlushBatch()
		if o := p.acc(); o != nil {
			o.Emit(stats.EvAccExit, int(p.node), 0, 0, uint64(t.id), 0)
		}
		t.state = tDone
		p.current = nil
		p.dispatchNext()
	})
	p.eng.SetLane(prev)
	p.threads = append(p.threads, t)
	if o := p.acc(); o != nil {
		o.Emit(stats.EvAccSpawn, int(p.node), 0, 0, uint64(t.id), 0)
	}
	if p.current == nil {
		p.dispatch(t)
	} else {
		p.ready = append(p.ready, t)
	}
	return t
}

// dispatch gives the processor to t, charging the context-switch cost
// in SwitchOnSync mode.
//
// The wake event is drawn under this processor's own lane, whatever
// activity called here (machine setup in Spawn, a completion, a wake),
// never from the engine-local NoLane counter, which differs between
// shard counts (during a barrier replay the key is the replay's). The
// wake then runs on its node's lane (wake.HandleEvent). The caller's lane
// is restored around the draw.
func (p *Proc) dispatch(t *Thread) {
	p.current = t
	var cost sim.Cycles
	if p.mode == SwitchOnSync {
		cost = p.switchCost
		p.nstat().CtxSwitches++
	}
	if o := p.st.Observer(); o != nil {
		o.Emit(stats.EvDispatch, int(p.node), 0, 0, uint64(t.id), uint64(cost))
	}
	prev := p.eng.Lane()
	p.eng.SetLane(int32(p.node))
	t.wakeAfter(cost)
	p.eng.SetLane(prev)
}

// dispatchNext runs the next ready thread, or idles the processor.
// A crashed processor dispatches nothing until Resume.
func (p *Proc) dispatchNext() {
	if p.down || len(p.ready) == 0 {
		return
	}
	// Copy the rest down rather than re-slice: re-slicing walks the
	// list off its backing array, and the next append reallocates.
	t := p.ready[0]
	n := copy(p.ready, p.ready[1:])
	p.ready[n] = nil
	p.ready = p.ready[:n]
	p.dispatch(t)
}

// unblock makes a blocked or sleeping thread runnable. Called from
// event context (operation completions) or another thread's slice
// (Wake). While the processor is down the thread only queues; Resume
// dispatches it.
func (p *Proc) unblock(t *Thread) {
	t.state = tReady
	if p.current == nil && !p.down {
		p.dispatch(t)
	} else {
		p.ready = append(p.ready, t)
	}
}

// Pause crashes the processor: nothing dispatches until Resume, and
// every thread halts at its next memory reference (haltIfDown). The
// core layer calls this at the barrier after a scripted CrashEvent's
// start, so no thread is mid-slice.
func (p *Proc) Pause() { p.down = true }

// Down reports whether the processor is crashed.
func (p *Proc) Down() bool { return p.down }

// Resume restarts a crashed processor: threads halted mid-reference
// and any completions queued during the outage become runnable again.
func (p *Proc) Resume() {
	p.down = false
	halted := p.halted
	p.halted = p.halted[:0]
	for _, t := range halted {
		p.unblock(t)
	}
	if p.current == nil {
		p.dispatchNext()
	}
}

// WakeThread delivers a wake_up() (Table 3-2) to a thread of this
// processor: a sleeping thread becomes runnable, any other remembers
// the wake for its next Sleep to absorb. Thread.Wake calls it for a
// same-node wake, the node's coherence manager when a kWake arrives.
func (p *Proc) WakeThread(t *Thread) {
	if t.state == tSleeping {
		p.unblock(t)
	} else {
		t.wakePending = true
	}
}

// --- Thread API --------------------------------------------------------

// ID returns the machine-wide thread identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the diagnostic name.
func (t *Thread) Name() string { return t.name }

// Node returns the mesh node the thread runs on.
func (t *Thread) Node() mesh.NodeID { return t.proc.node }

// Done reports whether the thread's body has returned.
func (t *Thread) Done() bool { return t.state == tDone }

// Now returns the current virtual time in cycles.
func (t *Thread) Now() sim.Cycles { return t.proc.eng.Now() }

// wakeAfter arms the thread's next wake, after d cycles. The thread
// is the wake's sink (kind 0), as a *wake so that the public Thread
// carries no HandleEvent.
func (t *Thread) wakeAfter(d sim.Cycles) {
	if t.waking || t.state == tDone {
		panic("proc: wake of thread " + t.name + " while its wake is pending or after it finished")
	}
	t.waking = true
	t.proc.eng.ScheduleEvent(d, (*wake)(t), 0, nil)
}

// wake is a Thread in its role as the sink of its own wakes.
type wake Thread

// HandleEvent implements sim.EventSink: the thread's wake runs, as its
// node's activity, the step it was armed for. When the body is next
// (the wait was the body's own, or the delayed operation just
// returned) it switches to the coroutine, which returns here at its
// next Park. A panic inside a step therefore surfaces raw at the
// engine's Run, not as a *sim.CoroutinePanic.
func (w *wake) HandleEvent(int, any) {
	t := (*Thread)(w)
	t.proc.eng.SetLane(int32(t.proc.node))
	t.waking = false
	t.state = tRunning
	if t.advance() {
		t.resumes++
		t.co.Resume()
	}
}

// charge accounts c cycles of useful processor time (computation or
// instruction issue) — the numerator of the paper's utilization —
// and arms the wake that ends them. It reports whether there is a
// wait: nothing passes when c is 0. Inside a BeginIdle/EndIdle bracket
// the cycles pass but do not count as useful.
func (t *Thread) charge(c sim.Cycles) bool {
	if c == 0 {
		return false
	}
	if t.idleDepth == 0 {
		t.proc.nstat().BusyCycles += c
	}
	t.wakeAfter(c)
	return true
}

// consume charges c cycles of useful processor time from the body.
func (t *Thread) consume(c sim.Cycles) {
	if t.charge(c) {
		t.co.Park()
	}
}

// BeginIdle suspends useful-time accounting (polling for work); pairs
// with EndIdle. Nesting is allowed.
func (t *Thread) BeginIdle() { t.idleDepth++ }

// EndIdle resumes useful-time accounting.
func (t *Thread) EndIdle() {
	if t.idleDepth == 0 {
		panic("proc: EndIdle without BeginIdle")
	}
	t.idleDepth--
}

// overhead charges c cycles that are neither useful work nor a stall
// (page-fault handling).
func (t *Thread) overhead(c sim.Cycles) {
	if c == 0 {
		return
	}
	t.wakeAfter(c)
	t.co.Park()
}

// release gives up the processor, leaving the thread in state s, and
// dispatches the next ready thread. The thread's next wake comes from
// whatever makes it runnable again (unblock, Resume, its own requeue).
func (t *Thread) release(s tstate) {
	t.state = s
	t.proc.current = nil
	t.proc.dispatchNext()
}

// stallBegin starts a stall of the given class (stats.StallRead
// etc.): it records the start, emits EvStallBegin when an observer is
// attached, and blocks the thread until its completion hook unblocks
// it. stallEnd, run on the wake, closes the stall and returns its
// cycles. Body waits (waitOp) and the delayed-operation steps share
// the pair.
func (t *Thread) stallBegin(class uint8) {
	t.began = t.proc.eng.Now()
	if o := t.proc.st.Observer(); o != nil {
		o.Emit(stats.EvStallBegin, int(t.proc.node), class, 0, uint64(t.id), 0)
	}
	t.release(tBlocked)
}

func (t *Thread) stallEnd(class uint8) sim.Cycles {
	stalled := t.proc.eng.Now() - t.began
	if o := t.proc.st.Observer(); o != nil {
		o.Emit(stats.EvStallEnd, int(t.proc.node), class, 0, uint64(t.id), uint64(stalled))
	}
	return stalled
}

// waitOp parks the thread until its completion hook fires. Callers
// clear t.opCompleted, start the operation with one of the reusable
// hooks (t.opDone / t.readDone / t.issuedDone) as the callback — which
// may fire synchronously — and then waitOp. It returns the cycles
// spent parked. class is the stall class the park is recorded under;
// an operation that completed synchronously records nothing.
func (t *Thread) waitOp(class uint8) sim.Cycles {
	if t.opCompleted {
		return 0
	}
	t.stallBegin(class)
	t.co.Park()
	return t.stallEnd(class)
}

// halt queues the thread on its crashed processor's halted list and
// gives up the processor; Resume unblocks it.
func (t *Thread) halt() {
	t.proc.halted = append(t.proc.halted, t)
	t.release(tBlocked)
}

// haltIfDown parks the thread while its processor is crashed. Every
// memory-system entry point calls it first, so a thread that was
// computing when the crash hit stops at its next reference and stays
// parked until Resume unblocks it. The loop re-checks after waking in
// case a second scripted outage begins before the thread runs.
func (t *Thread) haltIfDown() {
	for t.proc.down {
		t.halt()
		t.co.Park()
	}
}

// run runs the delayed operation set up in t.step from the body: its
// steps run here until one must wait, and the body then parks until
// the operation returns (its wake resumes it).
func (t *Thread) run() {
	if !t.advance() {
		t.co.Park()
	}
}

// advance runs the steps of the delayed operation under way, from
// t.step, until one arms a wake (false: that wake continues at t.step)
// or the operation returns (true, with t.step back at stepBody). A
// *Sync wrapper's Issue continues into its Verify at stepVerify.
func (t *Thread) advance() bool {
	p := t.proc
	for {
		t.reached |= 1 << t.step
		switch t.step {
		case stepBody:
			return true
		case stepIssue:
			t.step = stepRMW
			if t.charge(timing.DelayedIssue) {
				return false
			}
		case stepRMW:
			t.opCompleted = false
			p.cm.RMW(t.op, t.g, t.operand, t.issuedDone)
			t.step = stepIssued
			if !t.opCompleted {
				t.stallBegin(stats.StallWrite)
				t.step = stepRMWStalled
				return false
			}
		case stepRMWStalled:
			p.nstat().WriteStall += t.stallEnd(stats.StallWrite)
			t.step = stepIssued
		case stepIssued:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccRMW, int(p.node), uint8(t.op), p.cm.SlotCause(t.slot),
					uint64(t.va), tb(t.id, t.operand))
			}
			t.step = stepBody
			if t.sync {
				t.step = stepVerify
			}
			if p.mode == SwitchOnSync {
				// The context switch after issuing: requeue behind
				// the ready list (re-dispatched at once, paying the
				// switch cost, when no other thread is ready).
				p.ready = append(p.ready, t)
				t.release(tReady)
				return false
			}
		case stepVerify:
			if p.down {
				t.halt() // the wake re-checks
				return false
			}
			// The slot's causal ID must be captured before cm.Verify:
			// delivery releases the slot.
			t.cause = p.cm.SlotCause(t.slot)
			t.opCompleted = false
			p.cm.Verify(t.slot, t.readDone)
			t.step = stepResult
			if !t.opCompleted {
				t.stallBegin(stats.StallVerify)
				t.step = stepVerifyStalled
				return false
			}
		case stepVerifyStalled:
			p.nstat().VerifyStall += t.stallEnd(stats.StallVerify)
			t.step = stepResult
		case stepResult:
			t.step = stepVerified
			if t.charge(timing.ResultRead) {
				return false
			}
		case stepVerified:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccVerify, int(p.node), 0, t.cause, uint64(t.id), uint64(uint32(t.readVal)))
			}
			t.step = stepBody
		}
	}
}

// translate converts a virtual address to the global physical address
// of this node's chosen copy, filling the page table lazily (§2.4) and
// feeding the hardware remote-reference counters.
func (t *Thread) translate(va memory.VAddr) coherence.GAddr {
	p := t.proc
	vp := va.Page()
	g, tlbHit, ok := p.table.Translate(vp)
	switch {
	case tlbHit:
		// Free: translation overlaps the access in hardware.
	case ok:
		t.overhead(timing.TLBRefill)
	default:
		t.overhead(timing.PageFault)
		resolved, err := p.kern.Resolve(p.node, vp)
		if err != nil {
			panic(fmt.Sprintf("proc: thread %q: %v", t.name, err))
		}
		p.table.Install(vp, resolved)
		p.nstat().PageFaults++
		g = resolved
	}
	if g.Node != p.node {
		p.kern.NoteRemoteRef(p.node, vp)
	}
	return coherence.At(g, va.Offset())
}

// Compute charges c cycles of application computation.
func (t *Thread) Compute(c sim.Cycles) { t.consume(c) }

// Read performs a coherent read of the word at va. Local reads cost
// the cache model's time; remote reads cost 32 cycles plus the network
// round trip; a read of a location with a write pending from this node
// blocks until the write completes.
func (t *Thread) Read(va memory.VAddr) memory.Word {
	sync := t.accSync
	t.accSync = false
	t.haltIfDown()
	g := t.translate(va)
	t.opCompleted = false
	t.proc.cm.Read(g, t.readDone)
	cause := t.proc.cm.LastCause()
	elapsed := t.waitOp(stats.StallRead)
	v := t.readVal
	if o := t.proc.acc(); o != nil {
		o.Emit(stats.EvAccRead, int(t.proc.node), accSub(sync), cause, uint64(va), tb(t.id, v))
	}
	// Accounting: an uncontended local access is useful memory time; a
	// remote or write-blocked read is busy for the issue overhead and
	// stalled for the remainder.
	if elapsed <= timing.CacheLineFill {
		t.proc.nstat().BusyCycles += elapsed
	} else {
		t.proc.nstat().BusyCycles += timing.RemoteReadOverhead
		t.proc.nstat().ReadStall += elapsed - timing.RemoteReadOverhead
		// Observed exactly where ReadStall accrues, so the histogram's
		// sum equals ReadStall + Count·RemoteReadOverhead by
		// construction (the acceptance cross-check).
		if o := t.proc.st.Observer(); o != nil {
			o.Metrics.RemoteRead.Observe(uint64(elapsed))
		}
	}
	return v
}

// Write issues a coherent, non-blocking write of v to va. The write
// propagates to every copy in the background; the processor stalls
// only when the pending-writes cache is full.
func (t *Thread) Write(va memory.VAddr, v memory.Word) {
	sync := t.accSync
	t.accSync = false
	t.haltIfDown()
	g := t.translate(va)
	t.opCompleted = false
	t.proc.cm.Write(g, v, t.opDone)
	cause := t.proc.cm.LastCause()
	t.proc.nstat().WriteStall += t.waitOp(stats.StallWrite)
	t.consume(timing.WriteIssue)
	if o := t.proc.acc(); o != nil {
		o.Emit(stats.EvAccWrite, int(t.proc.node), accSub(sync), cause, uint64(va), tb(t.id, v))
	}
}

// accSub maps the sync-annotation flag to the EvAccRead/EvAccWrite Sub
// code (1 = synchronization access).
func accSub(sync bool) uint8 {
	if sync {
		return 1
	}
	return 0
}

// ReadSync is Read with the access annotated as a synchronization read
// in the data-access event stream (Sub = 1): a spin-loop or flag read
// that intentionally polls a word released by Fence + WriteSync. The
// psync constructs use it for their internal spin words; timing and
// protocol behavior are identical to Read.
func (t *Thread) ReadSync(va memory.VAddr) memory.Word {
	t.accSync = true
	return t.Read(va)
}

// WriteSync is Write annotated as a synchronization (release) write —
// the `Fence(); Write(w, v)` publication idiom of §3.1, as in the
// barrier's generation flip or the spin lock's release. Identical to
// Write except for the event annotation.
func (t *Thread) WriteSync(va memory.VAddr, v memory.Word) {
	t.accSync = true
	t.Write(va, v)
}

// Fence blocks until all of this node's earlier writes (including
// delayed-operation modifications and any writes resting in the
// write-combine buffer, which it flushes) have completed at every copy
// — the explicit write fence of §2.3 used to order synchronization.
func (t *Thread) Fence() {
	t.haltIfDown()
	if o := t.proc.st.Observer(); o != nil {
		o.Emit(stats.EvFence, int(t.proc.node), 0, 0, uint64(t.id), 0)
	}
	t.opCompleted = false
	t.proc.cm.Fence(t.opDone)
	t.proc.nstat().FenceStall += t.waitOp(stats.StallFence)
	// EvAccFence marks the COMPLETION (all earlier writes done at every
	// copy) — the release point the race detector snapshots — unlike
	// EvFence above, which marks the issue.
	if o := t.proc.acc(); o != nil {
		o.Emit(stats.EvAccFence, int(t.proc.node), 0, 0, uint64(t.id), 0)
	}
}

// Issue starts a delayed operation on va and returns a handle for
// Verify. The issue costs ~25 cycles; the operation executes at the
// master copy concurrently with subsequent instructions. In
// SwitchOnSync mode the processor switches threads after issuing.
func (t *Thread) Issue(op coherence.Op, va memory.VAddr, operand memory.Word) Handle {
	t.issue(op, va, operand, false)
	return Handle{slot: t.slot, node: t.proc.node}
}

// issue runs a delayed operation's issue — and with sync, its Verify
// too — parking the body once. The halt check, the fence-on-sync
// ablation's Fence and the translation stay body waits; the rest runs
// as steps (advance).
func (t *Thread) issue(op coherence.Op, va memory.VAddr, operand memory.Word, sync bool) {
	t.haltIfDown()
	if t.proc.fenceOnSync {
		t.Fence()
	}
	t.g = t.translate(va)
	t.op, t.va, t.operand, t.sync = op, va, operand, sync
	t.step = stepIssue
	t.run()
}

// syncOp is a blocking delayed operation, Issue immediately followed
// by Verify (the "blocking synchronization" coding style of Figure
// 3-1), run as one operation with one park.
func (t *Thread) syncOp(op coherence.Op, va memory.VAddr, operand memory.Word) memory.Word {
	t.issue(op, va, operand, true)
	return t.readVal
}

// Verify retrieves a delayed operation's result, blocking until it is
// available, and frees the delayed-operations cache slot. Reading an
// available result costs ~10 cycles. Like Fence and Issue it is a
// write-combining flush point.
func (t *Thread) Verify(h Handle) memory.Word {
	// Checked on the body, so the panic surfaces as the thread's.
	if h.node != t.proc.node {
		panic(fmt.Sprintf("proc: thread %q verifying a handle issued on node %d", t.name, h.node))
	}
	t.slot = h.slot
	t.step = stepVerify
	t.run()
	return t.readVal
}

// TryVerify polls a delayed operation's status without blocking:
// software can inspect the delayed-operations cache, so a non-blocking
// read of the result is possible (§3.1). A successful poll frees the
// slot and costs the usual result-read time; a failed poll costs one
// cycle.
func (t *Thread) TryVerify(h Handle) (memory.Word, bool) {
	if h.node != t.proc.node {
		panic(fmt.Sprintf("proc: thread %q polling a handle issued on node %d", t.name, h.node))
	}
	t.haltIfDown()
	cause := t.proc.cm.SlotCause(h.slot)
	v, ok := t.proc.cm.TryVerify(h.slot)
	if ok {
		t.consume(timing.ResultRead)
		if o := t.proc.acc(); o != nil {
			o.Emit(stats.EvAccVerify, int(t.proc.node), 0, cause, uint64(t.id), uint64(uint32(v)))
		}
		return v, true
	}
	t.consume(timing.CacheHit)
	return 0, false
}

// Sleep parks the thread until another thread Wakes it (the wait() of
// the paper's queue lock, Table 3-2). A Wake that arrived earlier is
// absorbed immediately.
func (t *Thread) Sleep() {
	if t.wakePending {
		t.wakePending = false
		t.emitSleepEnd()
		return
	}
	// Parking indefinitely must not strand buffered writes (another
	// node may be waiting to observe them before issuing the Wake).
	t.proc.cm.FlushBatch()
	t.release(tSleeping)
	t.co.Park()
	t.emitSleepEnd()
}

// emitSleepEnd records the Sleep-return access event — the point where
// the race detector joins every earlier Wake targeting this thread.
func (t *Thread) emitSleepEnd() {
	if o := t.proc.acc(); o != nil {
		o.Emit(stats.EvAccSleep, int(t.proc.node), 0, 0, uint64(t.id), 0)
	}
}

// Wake makes the target thread runnable (wake_up() of Table 3-2). It
// may be called from any thread. A wake of a thread on the same node
// is instantaneous. A wake of a thread on another node is a 1-flit
// coherence message to that node and takes effect on arrival, one
// network latency later, whatever the shard count; the reliability
// sublayer carries it like any other message. The wakePending guard
// absorbs a wake that arrives before (or without) the target's Sleep.
func (t *Thread) Wake(target *Thread) {
	if o := t.proc.acc(); o != nil {
		o.Emit(stats.EvAccWake, int(t.proc.node), 0, 0, uint64(t.id), uint64(target.id))
	}
	if target.proc == t.proc {
		t.proc.WakeThread(target)
		return
	}
	t.proc.cm.SendWake(target.proc.node, uint64(target.id))
}

// --- Named delayed-operation wrappers (Table 3-1) ---------------------

// Xchng issues xchng: return current value, write operand.
func (t *Thread) Xchng(va memory.VAddr, v memory.Word) Handle {
	return t.Issue(coherence.OpXchng, va, v)
}

// CondXchng issues cond-xchng: return current value; write operand if
// the top bit of the current value is set.
func (t *Thread) CondXchng(va memory.VAddr, v memory.Word) Handle {
	return t.Issue(coherence.OpCondXchng, va, v)
}

// Fadd issues fetch-and-add with a signed delta.
func (t *Thread) Fadd(va memory.VAddr, delta int32) Handle {
	return t.Issue(coherence.OpFadd, va, memory.Word(uint32(delta)))
}

// FetchSet issues fetch-and-set: return current value, set top bit.
func (t *Thread) FetchSet(va memory.VAddr) Handle {
	return t.Issue(coherence.OpFetchSet, va, 0)
}

// Enqueue issues queue on the control word at va (which holds the
// tail offset within its page).
func (t *Thread) Enqueue(va memory.VAddr, v memory.Word) Handle {
	return t.Issue(coherence.OpQueue, va, v)
}

// Dequeue issues dequeue on the control word at va (which holds the
// head offset within its page).
func (t *Thread) Dequeue(va memory.VAddr) Handle {
	return t.Issue(coherence.OpDequeue, va, 0)
}

// MinXchng issues min-xchng: return current value, store operand if
// smaller.
func (t *Thread) MinXchng(va memory.VAddr, v memory.Word) Handle {
	return t.Issue(coherence.OpMinXchng, va, v)
}

// DelayedRead issues an asynchronous read whose result is retrieved
// later with Verify — the latency-hiding read of §3.2.
func (t *Thread) DelayedRead(va memory.VAddr) Handle {
	return t.Issue(coherence.OpDelayedRead, va, 0)
}

// --- Blocking convenience wrappers -------------------------------------

// FaddSync is a blocking fetch-and-add: Issue immediately followed by
// Verify (the "blocking synchronization" coding style of Figure 3-1).
func (t *Thread) FaddSync(va memory.VAddr, delta int32) memory.Word {
	return t.syncOp(coherence.OpFadd, va, memory.Word(uint32(delta)))
}

// XchngSync is a blocking exchange.
func (t *Thread) XchngSync(va memory.VAddr, v memory.Word) memory.Word {
	return t.syncOp(coherence.OpXchng, va, v)
}

// FetchSetSync is a blocking fetch-and-set.
func (t *Thread) FetchSetSync(va memory.VAddr) memory.Word {
	return t.syncOp(coherence.OpFetchSet, va, 0)
}

// EnqueueSync is a blocking enqueue returning the old tail word.
func (t *Thread) EnqueueSync(va memory.VAddr, v memory.Word) memory.Word {
	return t.syncOp(coherence.OpQueue, va, v)
}

// DequeueSync is a blocking dequeue returning the old head word.
func (t *Thread) DequeueSync(va memory.VAddr) memory.Word {
	return t.syncOp(coherence.OpDequeue, va, 0)
}

// MinXchngSync is a blocking min-exchange.
func (t *Thread) MinXchngSync(va memory.VAddr, v memory.Word) memory.Word {
	return t.syncOp(coherence.OpMinXchng, va, v)
}

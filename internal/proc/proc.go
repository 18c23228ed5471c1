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
//
// Only the machine is simulated, not the Go code between two calls, so
// a body runs ahead of simulated time. A call that returns nothing
// (Compute, Write, Fence, Issue, Wake) queues on the thread and the
// body goes on; a call that returns a value (Read, Verify, a *Sync
// wrapper, TryVerify, Now) and Sleep park the body until every call
// before it, and the call itself, has run. The thread's wakes run the
// queued calls one after another, each at the simulated time it would
// have run had the body parked after every call, so the simulation is
// the same either way. The rule for bodies: Go code between two calls
// runs when the earlier value-returning call returns. A body that
// touches the machine other than through its Thread (a kernel call,
// the stats, another thread's state) calls t.Now() first.
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

// maxQueued bounds a thread's FIFO of pending calls: a body that makes
// that many calls without one that returns a value parks until they
// have run, as if it had asked for the time.
const maxQueued = 32

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
	// idleDepth > 0 suspends useful-time accounting: operations issued
	// while polling for work are real processor activity but not the
	// "useful processor time" of the paper's utilization metric. Calls
	// take it when the body makes them.
	idleDepth int

	// q holds the calls the body has made and the machine has not yet
	// run, q[qhead] the one under way. The body fills it while it runs
	// and parks only for a value; the thread's wakes run the calls'
	// steps, in order, while it is parked, and resume it when q is dry.
	q     []call
	qhead int
	// issued numbers the thread's Issues (the Handle tickets); held maps
	// each issued, unverified ticket to its delayed-operations cache slot.
	issued uint32
	held   []heldSlot

	// Reusable completion hooks, created once at Spawn. Only the head
	// call has a memory operation outstanding, so the hooks and their
	// result fields are shared by every call.
	opCompleted bool
	readVal     memory.Word
	ok          bool // TryVerify's result was available
	slot        int  // the delayed operation's slot: issuedDone's, or Verify's handle's
	opDone      func()
	readDone    func(memory.Word)
	issuedDone  func(int)

	// The thread is the sink of its own wakes (wake). step says what
	// the next wake runs: the next step of the head call, or the body
	// when q is dry. The fields after it are the head call's progress.
	step    step
	waking  bool         // a wake is pending: guards against a double wake
	pg      memory.GPage // the page translate found
	g       coherence.GAddr
	cause   uint64     // the access's causal ID; the verified slot's is read before cm.Verify frees it
	began   sim.Cycles // when the current stall began
	class   uint8      // the current stall's class (stats.StallRead etc.)
	after   step       // the step the stall ends into
	stalled sim.Cycles // the read's stall, 0 when it completed at once
	// resumes counts switches into the body and reached has bit s set
	// once step s has run: the tests pin one switch per value the body
	// waits for and that their programs reach every step.
	resumes int
	reached uint32
}

// callKind is what the body asked for.
type callKind uint8

const (
	kCompute   callKind = iota // Compute, IdleUntil's wait
	kRead                      // Read, ReadSync
	kWrite                     // Write, WriteSync
	kFence                     // Fence
	kIssue                     // Issue and its named wrappers
	kSyncOp                    // a *Sync wrapper: Issue, then Verify
	kVerify                    // Verify
	kTryVerify                 // TryVerify
	kWake                      // Wake
	kSleep                     // Sleep
)

// call is one pending call: its operands and the body state it was
// made under.
type call struct {
	kind   callKind
	sync   bool // kRead, kWrite: a synchronization access (ReadSync, WriteSync)
	idle   bool // made inside a BeginIdle/EndIdle bracket
	va     memory.VAddr
	v      memory.Word // the value written, or the delayed operation's operand
	ticket uint32      // kIssue's own; kVerify's and kTryVerify's handle's
	op     coherence.Op
	c      sim.Cycles // kCompute
	target *Thread    // kWake
}

// heldSlot ties an issued delayed operation's ticket to its slot.
type heldSlot struct {
	ticket uint32
	slot   int
}

// step is a stage of a call, run from the thread's own wake in event
// context, or at once from the body when the call finds the FIFO idle.
// Each step runs in the dispatch in which a body that parked after
// every call would have run it, so its draws and emissions fall in the
// same order.
type step uint8

const (
	stepDone       step = iota // the head call returned: start the next, or resume the body
	stepHalt                   // halt while the processor is down; the wake re-checks
	stepTranslate              // TLB lookup; wait out a refill or a page fault
	stepResolve                // the page fault's fill (kern.Resolve)
	stepTranslated             // the remote-reference count; on to the access
	stepCompute                // charge the computation
	stepRead                   // cm.Read; stall until the value is in
	stepReadDone               // EvAccRead and the read's accounting
	stepWrite                  // cm.Write; stall while the pending-writes cache is full
	stepWriteIssue             // charge the write issue
	stepWritten                // EvAccWrite
	stepFence                  // EvFence; cm.Fence; stall until earlier writes complete
	stepFenced                 // EvAccFence; a fence-on-sync issue continues to translate
	stepIssue                  // charge the issue (DelayedIssue)
	stepRMW                    // hand the operation to the CM; stall while the delayed-operations cache is full
	stepIssued                 // EvAccRMW; in SwitchOnSync, requeue behind the ready list
	stepVerify                 // halt while the processor is down; cm.Verify; stall until the result is in
	stepResult                 // charge the result read (ResultRead)
	stepVerified               // EvAccVerify
	stepTryVerify              // cm.TryVerify and its charge
	stepWake                   // EvAccWake and the wake
	stepSleep                  // absorb a pending wake, or give up the processor
	stepSlept                  // EvAccSleep
	stepStalled                // end a stall, then go on to the step after it
	nSteps
)

// firstStep is the step each kind of call starts at.
var firstStep = [...]step{
	kCompute:   stepCompute,
	kRead:      stepHalt,
	kWrite:     stepHalt,
	kFence:     stepHalt,
	kIssue:     stepHalt,
	kSyncOp:    stepHalt,
	kVerify:    stepVerify,
	kTryVerify: stepHalt,
	kWake:      stepWake,
	kSleep:     stepSleep,
}

// Handle identifies a delayed operation a thread issued: its ticket
// among the thread's issues, which the operation's steps resolve to
// the address of a location in the delayed-operations cache (a slot
// index here). Only the issuing thread may verify it.
type Handle struct {
	ticket uint32
	thread int
	node   mesh.NodeID
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
		t.drain()
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
// event context (operation completions, another thread's Wake step).
// While the processor is down the thread only queues; Resume
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
// every thread halts at its next memory reference (stepHalt). The
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

// Now returns the current virtual time in cycles: the time every call
// the body made before it has returned by. It parks until they have.
func (t *Thread) Now() sim.Cycles {
	t.drain()
	return t.proc.eng.Now()
}

// post queues c behind the body's earlier calls. When the FIFO was
// idle, c's steps run at once, until one waits. With wait set (c
// returns a value), or when the FIFO is full, the body parks until
// the FIFO has run dry; otherwise it goes on running at once.
func (t *Thread) post(c call, wait bool) {
	t.q = append(t.q, c)
	if len(t.q) == 1 {
		t.step = firstStep[c.kind]
		if t.advance() {
			return
		}
	}
	if wait || len(t.q) == maxQueued {
		t.co.Park()
	}
}

// drain parks the body until every call it made has run.
func (t *Thread) drain() {
	if len(t.q) > 0 {
		t.co.Park()
	}
}

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
// node's activity, the steps of its pending calls. When they have all
// run it switches to the body, which returns here at its next Park. A
// panic inside a step therefore surfaces raw at the engine's Run, not
// as a *sim.CoroutinePanic.
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
// wait: nothing passes when c is 0. For a call made inside a
// BeginIdle/EndIdle bracket the cycles pass but do not count as
// useful.
func (t *Thread) charge(c sim.Cycles, idle bool) bool {
	if c == 0 {
		return false
	}
	if !idle {
		t.proc.nstat().BusyCycles += c
	}
	t.wakeAfter(c)
	return true
}

// BeginIdle suspends useful-time accounting (polling for work); pairs
// with EndIdle. Nesting is allowed. Calls made inside the bracket
// carry it, whenever they run.
func (t *Thread) BeginIdle() { t.idleDepth++ }

// EndIdle resumes useful-time accounting.
func (t *Thread) EndIdle() {
	if t.idleDepth == 0 {
		panic("proc: EndIdle without BeginIdle")
	}
	t.idleDepth--
}

// release gives up the processor, leaving the thread in state s, and
// dispatches the next ready thread. The thread's next wake comes from
// whatever makes it runnable again (unblock, Resume, its own requeue).
func (t *Thread) release(s tstate) {
	t.state = s
	t.proc.current = nil
	t.proc.dispatchNext()
}

// stall starts a stall of the given class (stats.StallRead etc.) that
// ends into step after: it records the start, emits EvStallBegin when
// an observer is attached, and blocks the thread until its completion
// hook unblocks it. The wake then runs stepStalled, which closes the
// stall and books its cycles.
func (t *Thread) stall(class uint8, after step) {
	t.began = t.proc.eng.Now()
	t.class, t.after = class, after
	t.step = stepStalled
	if o := t.proc.st.Observer(); o != nil {
		o.Emit(stats.EvStallBegin, int(t.proc.node), class, 0, uint64(t.id), 0)
	}
	t.release(tBlocked)
}

// halt queues the thread on its crashed processor's halted list and
// gives up the processor; Resume unblocks it.
func (t *Thread) halt() {
	t.proc.halted = append(t.proc.halted, t)
	t.release(tBlocked)
}

// advance runs the steps of the pending calls, from the head's t.step,
// until one arms a wake (false: that wake continues at t.step) or the
// FIFO runs dry (true).
func (t *Thread) advance() bool {
	p := t.proc
	for t.qhead < len(t.q) {
		c := &t.q[t.qhead]
		t.reached |= 1 << t.step
		switch t.step {
		case stepDone:
			t.qhead++
			if t.qhead < len(t.q) {
				t.step = firstStep[t.q[t.qhead].kind]
			}
		case stepHalt:
			// A thread that was computing when the crash hit stops at
			// its next memory reference and stays halted until Resume;
			// the wake re-checks in case a second outage has begun.
			if p.down {
				t.halt()
				return false
			}
			switch c.kind {
			case kFence:
				t.step = stepFence
			case kTryVerify:
				t.step = stepTryVerify
			default:
				t.step = stepTranslate
				if (c.kind == kIssue || c.kind == kSyncOp) && p.fenceOnSync {
					t.step = stepFence
				}
			}
		case stepTranslate:
			// Translation to the global physical address of this node's
			// chosen copy, filling the page table lazily (§2.4) and
			// feeding the hardware remote-reference counters.
			g, tlbHit, ok := p.table.Translate(c.va.Page())
			t.pg = g
			switch {
			case tlbHit:
				// Free: translation overlaps the access in hardware.
				t.step = stepTranslated
			case ok:
				t.step = stepTranslated
				t.wakeAfter(timing.TLBRefill)
				return false
			default:
				// Page-fault handling is neither useful work nor a stall.
				t.step = stepResolve
				t.wakeAfter(timing.PageFault)
				return false
			}
		case stepResolve:
			vp := c.va.Page()
			resolved, err := p.kern.Resolve(p.node, vp)
			if err != nil {
				panic(fmt.Sprintf("proc: thread %q: %v", t.name, err))
			}
			p.table.Install(vp, resolved)
			p.nstat().PageFaults++
			t.pg = resolved
			t.step = stepTranslated
		case stepTranslated:
			if t.pg.Node != p.node {
				p.kern.NoteRemoteRef(p.node, c.va.Page())
			}
			t.g = coherence.At(t.pg, c.va.Offset())
			switch c.kind {
			case kRead:
				t.step = stepRead
			case kWrite:
				t.step = stepWrite
			default:
				t.step = stepIssue
			}
		case stepCompute:
			t.step = stepDone
			if t.charge(c.c, c.idle) {
				return false
			}
		case stepRead:
			t.opCompleted = false
			t.cause = p.cm.Read(t.g, t.readDone)
			t.stalled = 0
			t.step = stepReadDone
			if !t.opCompleted {
				t.stall(stats.StallRead, stepReadDone)
				return false
			}
		case stepReadDone:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccRead, int(p.node), accSub(c.sync), t.cause, uint64(c.va), tb(t.id, t.readVal))
			}
			// Accounting: an uncontended local access is useful memory
			// time; a remote or write-blocked read is busy for the issue
			// overhead and stalled for the remainder.
			if t.stalled <= timing.CacheLineFill {
				p.nstat().BusyCycles += t.stalled
			} else {
				p.nstat().BusyCycles += timing.RemoteReadOverhead
				p.nstat().ReadStall += t.stalled - timing.RemoteReadOverhead
				// Observed exactly where ReadStall accrues, so the
				// histogram's sum equals ReadStall +
				// Count·RemoteReadOverhead by construction (the
				// acceptance cross-check).
				if o := p.st.Observer(); o != nil {
					o.Metrics.RemoteRead.Observe(uint64(t.stalled))
				}
			}
			t.step = stepDone
		case stepWrite:
			t.opCompleted = false
			t.cause = p.cm.Write(t.g, c.v, t.opDone)
			t.step = stepWriteIssue
			if !t.opCompleted {
				t.stall(stats.StallWrite, stepWriteIssue)
				return false
			}
		case stepWriteIssue:
			t.step = stepWritten
			if t.charge(timing.WriteIssue, c.idle) {
				return false
			}
		case stepWritten:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccWrite, int(p.node), accSub(c.sync), t.cause, uint64(c.va), tb(t.id, c.v))
			}
			t.step = stepDone
		case stepFence:
			if o := p.st.Observer(); o != nil {
				o.Emit(stats.EvFence, int(p.node), 0, 0, uint64(t.id), 0)
			}
			t.opCompleted = false
			p.cm.Fence(t.opDone)
			t.step = stepFenced
			if !t.opCompleted {
				t.stall(stats.StallFence, stepFenced)
				return false
			}
		case stepFenced:
			// EvAccFence marks the COMPLETION (all earlier writes done at
			// every copy) — the release point the race detector
			// snapshots — unlike EvFence, which marks the issue.
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccFence, int(p.node), 0, 0, uint64(t.id), 0)
			}
			t.step = stepDone
			if c.kind != kFence {
				t.step = stepTranslate
			}
		case stepIssue:
			t.step = stepRMW
			if t.charge(timing.DelayedIssue, c.idle) {
				return false
			}
		case stepRMW:
			t.opCompleted = false
			p.cm.RMW(c.op, t.g, c.v, t.issuedDone)
			t.step = stepIssued
			if !t.opCompleted {
				t.stall(stats.StallWrite, stepIssued)
				return false
			}
		case stepIssued:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccRMW, int(p.node), uint8(c.op), p.cm.SlotCause(t.slot),
					uint64(c.va), tb(t.id, c.v))
			}
			t.step = stepDone
			if c.kind == kSyncOp {
				t.step = stepVerify
			} else {
				t.held = append(t.held, heldSlot{c.ticket, t.slot})
			}
			if p.mode == SwitchOnSync {
				// The context switch after issuing: requeue behind the
				// ready list (re-dispatched at once, paying the switch
				// cost, when no other thread is ready).
				p.ready = append(p.ready, t)
				t.release(tReady)
				return false
			}
		case stepVerify:
			if p.down {
				t.halt() // the wake re-checks
				return false
			}
			if c.kind == kVerify {
				t.slot = t.unhold(t.holding(c.ticket))
			}
			// The slot's causal ID must be captured before cm.Verify:
			// delivery releases the slot.
			t.cause = p.cm.SlotCause(t.slot)
			t.opCompleted = false
			p.cm.Verify(t.slot, t.readDone)
			t.step = stepResult
			if !t.opCompleted {
				t.stall(stats.StallVerify, stepResult)
				return false
			}
		case stepResult:
			t.step = stepVerified
			if t.charge(timing.ResultRead, c.idle) {
				return false
			}
		case stepVerified:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccVerify, int(p.node), 0, t.cause, uint64(t.id), uint64(uint32(t.readVal)))
			}
			t.step = stepDone
		case stepTryVerify:
			// Software can inspect the delayed-operations cache, so a
			// non-blocking read of the result is possible (§3.1).
			i := t.holding(c.ticket)
			t.cause = p.cm.SlotCause(t.held[i].slot)
			t.readVal, t.ok = p.cm.TryVerify(t.held[i].slot)
			if !t.ok {
				t.step = stepDone
				if t.charge(timing.CacheHit, c.idle) {
					return false
				}
				break
			}
			t.unhold(i)
			t.step = stepVerified
			if t.charge(timing.ResultRead, c.idle) {
				return false
			}
		case stepWake:
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccWake, int(p.node), 0, 0, uint64(t.id), uint64(c.target.id))
			}
			if c.target.proc == p {
				p.WakeThread(c.target)
			} else {
				p.cm.SendWake(c.target.proc.node, uint64(c.target.id))
			}
			t.step = stepDone
		case stepSleep:
			t.step = stepSlept
			if t.wakePending {
				t.wakePending = false
				break
			}
			// Parking indefinitely must not strand buffered writes
			// (another node may be waiting to observe them before
			// issuing the Wake).
			p.cm.FlushBatch()
			t.release(tSleeping)
			return false
		case stepSlept:
			// The Sleep-return access event: the point where the race
			// detector joins every earlier Wake targeting this thread.
			if o := p.acc(); o != nil {
				o.Emit(stats.EvAccSleep, int(p.node), 0, 0, uint64(t.id), 0)
			}
			t.step = stepDone
		case stepStalled:
			stalled := p.eng.Now() - t.began
			if o := p.st.Observer(); o != nil {
				o.Emit(stats.EvStallEnd, int(p.node), t.class, 0, uint64(t.id), uint64(stalled))
			}
			switch t.class {
			case stats.StallRead:
				t.stalled = stalled
			case stats.StallWrite:
				p.nstat().WriteStall += stalled
			case stats.StallFence:
				p.nstat().FenceStall += stalled
			case stats.StallVerify:
				p.nstat().VerifyStall += stalled
			}
			t.step = t.after
		}
	}
	t.q, t.qhead = t.q[:0], 0
	return true
}

// holding returns the index in held of the slot an issued ticket
// resolved to.
func (t *Thread) holding(ticket uint32) int {
	for i := range t.held {
		if t.held[i].ticket == ticket {
			return i
		}
	}
	panic(fmt.Sprintf("proc: thread %q verifying a delayed operation it already verified", t.name))
}

// unhold drops held[i], returning its slot.
func (t *Thread) unhold(i int) int {
	slot := t.held[i].slot
	last := len(t.held) - 1
	t.held[i] = t.held[last]
	t.held = t.held[:last]
	return slot
}

// checkOwner checks, on the body, that h was issued by this thread.
func (t *Thread) checkOwner(h Handle, what string) {
	if h.node != t.proc.node {
		panic(fmt.Sprintf("proc: thread %q %s a handle issued on node %d", t.name, what, h.node))
	}
	if h.thread != t.id {
		panic(fmt.Sprintf("proc: thread %q %s a handle thread %d issued", t.name, what, h.thread))
	}
}

// Compute charges c cycles of application computation.
func (t *Thread) Compute(c sim.Cycles) {
	t.post(call{kind: kCompute, c: c, idle: t.idleDepth > 0}, false)
}

// Read performs a coherent read of the word at va. Local reads cost
// the cache model's time; remote reads cost 32 cycles plus the network
// round trip; a read of a location with a write pending from this node
// blocks until the write completes.
func (t *Thread) Read(va memory.VAddr) memory.Word { return t.read(va, false) }

func (t *Thread) read(va memory.VAddr, sync bool) memory.Word {
	t.post(call{kind: kRead, va: va, sync: sync}, true)
	return t.readVal
}

// Write issues a coherent, non-blocking write of v to va. The write
// propagates to every copy in the background; the processor stalls
// only when the pending-writes cache is full.
func (t *Thread) Write(va memory.VAddr, v memory.Word) { t.write(va, v, false) }

func (t *Thread) write(va memory.VAddr, v memory.Word, sync bool) {
	t.post(call{kind: kWrite, va: va, v: v, sync: sync, idle: t.idleDepth > 0}, false)
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
func (t *Thread) ReadSync(va memory.VAddr) memory.Word { return t.read(va, true) }

// WriteSync is Write annotated as a synchronization (release) write —
// the `Fence(); Write(w, v)` publication idiom of §3.1, as in the
// barrier's generation flip or the spin lock's release. Identical to
// Write except for the event annotation.
func (t *Thread) WriteSync(va memory.VAddr, v memory.Word) { t.write(va, v, true) }

// Fence blocks until all of this node's earlier writes (including
// delayed-operation modifications and any writes resting in the
// write-combine buffer, which it flushes) have completed at every copy
// — the explicit write fence of §2.3 used to order synchronization.
func (t *Thread) Fence() { t.post(call{kind: kFence}, false) }

// Issue starts a delayed operation on va and returns a handle for
// Verify. The issue costs ~25 cycles; the operation executes at the
// master copy concurrently with subsequent instructions. In
// SwitchOnSync mode the processor switches threads after issuing.
func (t *Thread) Issue(op coherence.Op, va memory.VAddr, operand memory.Word) Handle {
	t.issued++
	t.post(call{kind: kIssue, op: op, va: va, v: operand, ticket: t.issued, idle: t.idleDepth > 0}, false)
	return Handle{ticket: t.issued, thread: t.id, node: t.proc.node}
}

// syncOp is a blocking delayed operation, Issue immediately followed
// by Verify (the "blocking synchronization" coding style of Figure
// 3-1), run as one call.
func (t *Thread) syncOp(op coherence.Op, va memory.VAddr, operand memory.Word) memory.Word {
	t.post(call{kind: kSyncOp, op: op, va: va, v: operand, idle: t.idleDepth > 0}, true)
	return t.readVal
}

// Verify retrieves a delayed operation's result, blocking until it is
// available, and frees the delayed-operations cache slot. Reading an
// available result costs ~10 cycles. Like Fence and Issue it is a
// write-combining flush point.
func (t *Thread) Verify(h Handle) memory.Word {
	t.checkOwner(h, "verifying")
	t.post(call{kind: kVerify, ticket: h.ticket, idle: t.idleDepth > 0}, true)
	return t.readVal
}

// TryVerify polls a delayed operation's status without blocking:
// software can inspect the delayed-operations cache, so a non-blocking
// read of the result is possible (§3.1). A successful poll frees the
// slot and costs the usual result-read time; a failed poll costs one
// cycle.
func (t *Thread) TryVerify(h Handle) (memory.Word, bool) {
	t.checkOwner(h, "polling")
	t.post(call{kind: kTryVerify, ticket: h.ticket, idle: t.idleDepth > 0}, true)
	if !t.ok {
		return 0, false
	}
	return t.readVal, true
}

// Sleep parks the thread until another thread Wakes it (the wait() of
// the paper's queue lock, Table 3-2). A Wake that arrived earlier is
// absorbed immediately.
func (t *Thread) Sleep() { t.post(call{kind: kSleep}, true) }

// Wake makes the target thread runnable (wake_up() of Table 3-2). It
// may be called from any thread. A wake of a thread on the same node
// is instantaneous. A wake of a thread on another node is a 1-flit
// coherence message to that node and takes effect on arrival, one
// network latency later, whatever the shard count; the reliability
// sublayer carries it like any other message. The wakePending guard
// absorbs a wake that arrives before (or without) the target's Sleep.
func (t *Thread) Wake(target *Thread) { t.post(call{kind: kWake, target: target}, false) }

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

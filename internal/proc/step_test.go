package proc

import (
	"reflect"
	"slices"
	"testing"

	"plus/internal/coherence"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
)

// syncOp is one blocking delayed operation written both ways: as its
// *Sync wrapper, which runs Issue and Verify as one call, and as the
// Verify(Issue(...)) pair the wrapper stands for.
type syncOp struct {
	name string
	sync func(t *Thread, va memory.VAddr) memory.Word
	pair func(t *Thread, va memory.VAddr) memory.Word
}

var syncOps = []syncOp{
	{"FaddSync",
		func(t *Thread, va memory.VAddr) memory.Word { return t.FaddSync(va, 3) },
		func(t *Thread, va memory.VAddr) memory.Word { return t.Verify(t.Fadd(va, 3)) }},
	{"XchngSync",
		func(t *Thread, va memory.VAddr) memory.Word { return t.XchngSync(va, 7) },
		func(t *Thread, va memory.VAddr) memory.Word { return t.Verify(t.Xchng(va, 7)) }},
	{"FetchSetSync",
		func(t *Thread, va memory.VAddr) memory.Word { return t.FetchSetSync(va) },
		func(t *Thread, va memory.VAddr) memory.Word { return t.Verify(t.FetchSet(va)) }},
	{"MinXchngSync",
		func(t *Thread, va memory.VAddr) memory.Word { return t.MinXchngSync(va, 5) },
		func(t *Thread, va memory.VAddr) memory.Word { return t.Verify(t.MinXchng(va, 5)) }},
	{"EnqueueSync",
		func(t *Thread, va memory.VAddr) memory.Word { return t.EnqueueSync(va, 9) },
		func(t *Thread, va memory.VAddr) memory.Word { return t.Verify(t.Enqueue(va, 9)) }},
	{"DequeueSync",
		func(t *Thread, va memory.VAddr) memory.Word { return t.DequeueSync(va + 1) },
		func(t *Thread, va memory.VAddr) memory.Word { return t.Verify(t.Dequeue(va + 1)) }},
}

// stepLeg is one machine set-up the wrappers are compared under.
type stepLeg struct {
	name  string
	w, h  int
	mode  Mode
	cs    sim.Cycles
	fence bool // FenceOnSync on node 0
	// writes is the number of remote writes node 0 makes before each
	// operation: MaxPendingWrites of them fill the pending-writes
	// cache, so a mutating operation stalls in its RMW hand-off.
	writes int
	// crash runs one thread on node 0, not two, and pauses the
	// processor one cycle after its first issue, inside the
	// SwitchOnSync switch that precedes its Verify, and resumes it
	// 2000 cycles later.
	crash bool
}

var stepLegs = []stepLeg{
	{name: "run-to-block", w: 2, h: 2, mode: RunToBlock},
	{name: "switch-on-sync", w: 2, h: 2, mode: SwitchOnSync, cs: 40},
	{name: "fence-on-sync", w: 2, h: 2, mode: RunToBlock, fence: true, writes: 2},
	{name: "rmw-stall", w: 8, h: 8, mode: RunToBlock, writes: 8},
	{name: "slow-verify", w: 8, h: 8, mode: RunToBlock},
	{name: "crash", w: 2, h: 2, mode: SwitchOnSync, cs: 40, crash: true},
}

// stepRun is what one run of a leg's program shows.
type stepRun struct {
	elapsed sim.Cycles
	nodes   []stats.Node
	events  []stats.Event
	results []memory.Word
	reached uint32
	resumes int
	threads int // the threads on node 0, each resumed once to start
	// haltedAt holds the step each thread halted by the crash would
	// wake into.
	haltedAt []step
}

// runStepLeg runs the leg's program with every operation written as
// its wrapper (sync) or as the pair. Node 0 runs two threads (one in
// the crash leg), each doing every operation on a word mastered at the
// far corner and on one mastered locally, the queue operations on a
// queue at the far corner; node 1 runs a thread of plain reads and
// writes alongside, so wakes of different threads interleave. crashAt,
// when nonzero, is the issue the crash leg's pause follows.
func runStepLeg(t *testing.T, leg stepLeg, sync bool, crashAt sim.Cycles) stepRun {
	t.Helper()
	r := newRig(t, leg.w, leg.h, leg.mode, leg.cs)
	obs := stats.NewObserver(stats.ObserveConfig{Events: 1 << 16, DataAccess: true})
	obs.Bind(r.eng.Now, stats.TraceMeta{Nodes: leg.w * leg.h})
	r.st.AttachObserver(obs)
	far := leg.w*leg.h - 1
	remote := r.kern.AllocPage(mesh.NodeID(far)).Base()
	local := r.kern.AllocPage(0).Base()
	queue := r.kern.AllocPage(mesh.NodeID(far)).Base() + 100
	spill := r.kern.AllocPage(mesh.NodeID(far)).Base() + 200
	r.procs[0].SetFenceOnSync(leg.fence)
	var out stepRun
	if crashAt > 0 {
		p := r.procs[0]
		r.eng.ScheduleEventAt(crashAt+1, fnSink{}, 0, p.Pause)
		r.eng.ScheduleEventAt(crashAt+2001, fnSink{}, 0, func() {
			for _, th := range p.halted {
				out.haltedAt = append(out.haltedAt, th.step)
			}
			p.Resume()
		})
	}
	var threads []*Thread
	n := 2
	if leg.crash {
		n = 1
	}
	for id := 0; id < n; id++ {
		threads = append(threads, r.procs[0].Spawn(id, "op", func(th *Thread) {
			for _, op := range syncOps {
				for _, va := range []memory.VAddr{remote, local, queue} {
					if op.name != "EnqueueSync" && op.name != "DequeueSync" && va == queue {
						continue
					}
					for i := 0; i < leg.writes; i++ {
						th.Write(spill+memory.VAddr(i), memory.Word(i))
					}
					f := op.pair
					if sync {
						f = op.sync
					}
					out.results = append(out.results, f(th, va+memory.VAddr(th.ID())))
				}
			}
		}))
	}
	r.procs[1].Spawn(2, "plain", func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Write(remote+10, memory.Word(i))
			th.Read(remote + 10)
			th.Compute(30)
		}
	})
	r.eng.Run()
	for _, th := range threads {
		if !th.Done() {
			t.Fatalf("%s: thread %d did not finish", leg.name, th.ID())
		}
		out.reached |= th.reached
		out.resumes += th.resumes
	}
	out.threads = len(threads)
	if obs.Overwritten() != 0 {
		t.Fatalf("%s: the event ring overflowed", leg.name)
	}
	out.elapsed = r.eng.LastActivityAt()
	out.nodes = append(out.nodes, r.st.Nodes...)
	out.events = slices.Collect(obs.All())
	return out
}

// delayedSteps are the steps of a delayed operation and of the writes
// the legs make before each one (the differential test in
// runahead_test.go reaches every step).
var delayedSteps = []step{
	stepDone, stepHalt, stepTranslate, stepResolve, stepTranslated,
	stepWrite, stepWriteIssue, stepWritten, stepFence, stepFenced,
	stepIssue, stepRMW, stepIssued, stepVerify, stepResult, stepVerified,
	stepStalled,
}

// TestSyncWrappersMatchIssueVerify pins the step machine: in every
// leg, each *Sync wrapper simulates exactly what its Verify(Issue(...))
// pair does — elapsed cycles, every node's counters, the stall and
// data-access events (the whole observed stream) and the values — and
// both switch into the body once per value. Together the legs reach
// every step of a delayed operation.
func TestSyncWrappersMatchIssueVerify(t *testing.T) {
	var reached uint32
	for _, leg := range stepLegs {
		var crashAt sim.Cycles
		if leg.crash {
			for _, e := range runStepLeg(t, leg, false, 0).events {
				if e.Kind == stats.EvAccRMW && e.Node == 0 {
					crashAt = e.At
					break
				}
			}
		}
		pair := runStepLeg(t, leg, false, crashAt)
		sync := runStepLeg(t, leg, true, crashAt)
		if sync.elapsed != pair.elapsed {
			t.Errorf("%s: elapsed %d cycles with the wrappers, %d with the pairs", leg.name, sync.elapsed, pair.elapsed)
		}
		for n := range pair.nodes {
			s, p := sync.nodes[n], pair.nodes[n]
			if s.WriteStall != p.WriteStall || s.VerifyStall != p.VerifyStall ||
				s.BusyCycles != p.BusyCycles || s.CtxSwitches != p.CtxSwitches {
				t.Errorf("%s: node %d stalls/busy/switches differ: wrappers %d/%d/%d/%d, pairs %d/%d/%d/%d",
					leg.name, n, s.WriteStall, s.VerifyStall, s.BusyCycles, s.CtxSwitches,
					p.WriteStall, p.VerifyStall, p.BusyCycles, p.CtxSwitches)
			}
		}
		if !reflect.DeepEqual(sync.nodes, pair.nodes) {
			t.Errorf("%s: node counters differ", leg.name)
		}
		if !reflect.DeepEqual(sync.results, pair.results) {
			t.Errorf("%s: results differ: %v vs %v", leg.name, sync.results, pair.results)
		}
		var stalls, accs int
		for _, e := range pair.events {
			switch {
			case e.Kind == stats.EvStallBegin || e.Kind == stats.EvStallEnd:
				stalls++
			case e.Kind >= stats.EvAccRead:
				accs++
			}
		}
		if stalls == 0 || accs == 0 {
			t.Errorf("%s: %d stall and %d data-access events observed, want some of each", leg.name, stalls, accs)
		}
		if len(sync.events) != len(pair.events) {
			t.Errorf("%s: %d events with the wrappers, %d with the pairs", leg.name, len(sync.events), len(pair.events))
		}
		for i := range min(len(sync.events), len(pair.events)) {
			if sync.events[i] != pair.events[i] {
				t.Errorf("%s: event %d differs:\n  wrappers %v\n  pairs    %v", leg.name, i, sync.events[i], pair.events[i])
				break
			}
		}
		// Issue queues, so the pair parks once, at its Verify, as the
		// wrapper does: once per value, plus the body's start.
		if want := len(sync.results) + sync.threads; sync.resumes != want || pair.resumes != want {
			t.Errorf("%s: %d resumes with the wrappers, %d with the pairs, want %d each", leg.name, sync.resumes, pair.resumes, want)
		}
		if leg.crash && (len(sync.haltedAt) != 1 || sync.haltedAt[0] != stepVerify) {
			t.Errorf("%s: threads halted at steps %v, want one at the verify's halt check (%d)", leg.name, sync.haltedAt, stepVerify)
		}
		reached |= sync.reached
	}
	for _, s := range delayedSteps {
		if reached&(1<<s) == 0 {
			t.Errorf("no leg reached step %d", s)
		}
	}
}

// TestOneResumePerValue pins the switch count of the step machine:
// the body switches in once per call that returns a value, when the
// calls before it and the call itself have run. A *Sync operation
// switches in once, and so does a Verify that stalls. Calls that
// return nothing — Compute, Write, Issue, Fence — queue without a
// switch, and everything in between (the issue charge, the RMW
// hand-off, the SwitchOnSync requeue, the stalls, the result read)
// runs in event context.
func TestOneResumePerValue(t *testing.T) {
	for _, mode := range []Mode{RunToBlock, SwitchOnSync} {
		r := newRig(t, 2, 2, mode, 40)
		va := r.kern.AllocPage(3).Base()
		const ops = 10
		var syncResumes, verifyResumes, mixedResumes int
		var verifyStall sim.Cycles
		th := r.procs[0].Spawn(0, "t", func(th *Thread) {
			th.FaddSync(va, 1)
			before := th.resumes
			for i := 0; i < ops; i++ {
				th.XchngSync(va, memory.Word(i))
			}
			syncResumes = th.resumes - before
			h := th.Fadd(va, 1)
			th.Now() // the body reads machine state next
			stall := r.st.Nodes[0].VerifyStall
			before = th.resumes
			th.Verify(h)
			verifyResumes = th.resumes - before
			verifyStall = r.st.Nodes[0].VerifyStall - stall
			before = th.resumes
			for i := 0; i < ops; i++ {
				th.Compute(50)
				th.Write(va+1, memory.Word(i))
				h := th.Fadd(va, 1)
				th.Fence()
				th.Verify(h)
				th.Read(va + 2)
			}
			mixedResumes = th.resumes - before
		})
		r.eng.Run()
		if !th.Done() {
			t.Fatalf("mode %d: thread did not finish", mode)
		}
		if syncResumes != ops {
			t.Errorf("mode %d: %d XchngSync resumed the body %d times, want %d", mode, ops, syncResumes, ops)
		}
		if verifyStall == 0 {
			t.Fatalf("mode %d: the remote Verify did not stall", mode)
		}
		if verifyResumes != 1 {
			t.Errorf("mode %d: a stalled Verify resumed the body %d times, want 1", mode, verifyResumes)
		}
		if mixedResumes != 2*ops {
			t.Errorf("mode %d: %d rounds of Compute, Write, Fadd, Fence, Verify and Read resumed the body %d times, want %d (one per Verify and Read)",
				mode, ops, mixedResumes, 2*ops)
		}
	}
}

// TestDelayedOpsAllocFree pins the step machine at zero allocations in
// steady state, in both processor modes: for a *Sync wrapper, for a
// separate Issue/Verify pair, for a remote Read, for Compute, Write
// and Fence queued behind each other until a Read, and for a Write
// and a Fence that waits for it made over and over with no value
// between them, so the FIFO fills and the fence waits in the
// coherence manager's fence-waiter list.
func TestDelayedOpsAllocFree(t *testing.T) {
	ops := []struct {
		name  string
		run   func(th *Thread, va memory.VAddr)
		count func(n stats.Node) uint64 // what the run must keep doing
	}{
		{"XchngSync", func(th *Thread, va memory.VAddr) { th.XchngSync(va, 1) },
			func(n stats.Node) uint64 { return n.RMWIssued }},
		{"Issue/Verify", func(th *Thread, va memory.VAddr) { th.Verify(th.Issue(coherence.OpFadd, va, 1)) },
			func(n stats.Node) uint64 { return n.RMWIssued }},
		{"Read", func(th *Thread, va memory.VAddr) { th.Read(va) },
			func(n stats.Node) uint64 { return n.RemoteReads }},
		{"Compute/Write/Fence/Read", func(th *Thread, va memory.VAddr) {
			th.Compute(20)
			th.Write(va+1, 1)
			th.Fence()
			th.Read(va)
		}, func(n stats.Node) uint64 { return n.Fences }},
		{"Write/Fence", func(th *Thread, va memory.VAddr) {
			th.Write(va+1, 1)
			th.Fence()
		}, func(n stats.Node) uint64 { return n.Fences }},
	}
	for _, mode := range []Mode{RunToBlock, SwitchOnSync} {
		for _, op := range ops {
			r := newRig(t, 2, 1, mode, 40)
			va := r.kern.AllocPage(1).Base()
			r.procs[0].Spawn(0, "t", func(th *Thread) {
				for {
					op.run(th, va)
				}
			})
			r.eng.RunLimit(2000) // warm-up: coroutine stack, queue pools
			avg := testing.AllocsPerRun(20, func() { r.eng.RunLimit(500) })
			if avg != 0 {
				t.Errorf("mode %d, %s: %v allocations per run, want 0", mode, op.name, avg)
			}
			if n := op.count(r.st.Nodes[0]); n < 100 {
				t.Errorf("mode %d, %s: %d operations, want the run to keep going", mode, op.name, n)
			}
		}
	}
}

// fnSink is the tests' event sink: each event runs the func() it
// carries as data.
type fnSink struct{}

func (fnSink) HandleEvent(_ int, data any) { data.(func())() }

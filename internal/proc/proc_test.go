package proc

import (
	"testing"

	"plus/internal/cache"
	"plus/internal/coherence"
	"plus/internal/kernel"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/mmu"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// rig wires processors directly (without the core facade) so the
// scheduler's internals can be probed.
type rig struct {
	eng   *sim.Engine
	net   *mesh.Mesh
	st    *stats.Machine
	kern  *kernel.Kernel
	procs []*Proc
	mems  []*memory.Memory
	tbls  []*mmu.Table
}

func newRig(t *testing.T, w, h int, mode Mode, cs sim.Cycles) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig(w, h))
	tm := timing.Default()
	st := stats.New(w * h)
	r := &rig{eng: eng, net: net, st: st}
	var cms []*coherence.CM
	for i := 0; i < w*h; i++ {
		mem := memory.New()
		ca := cache.New()
		cm := coherence.New(mesh.NodeID(i), eng, net, mem, ca, tm, st)
		cms = append(cms, cm)
		r.mems = append(r.mems, mem)
		r.tbls = append(r.tbls, mmu.New())
	}
	r.kern = kernel.New(eng, net, cms, r.mems, r.tbls, st)
	for i := 0; i < w*h; i++ {
		r.procs = append(r.procs, New(mesh.NodeID(i), net, cms[i], r.kern, r.tbls[i], st, mode, cs))
	}
	return r
}

func TestComputeAccountsBusy(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	th := r.procs[0].Spawn(0, "t", func(t *Thread) {
		t.Compute(500)
	})
	r.eng.Run()
	if !th.Done() {
		t.Fatal("thread not done")
	}
	if r.st.Nodes[0].BusyCycles != 500 {
		t.Fatalf("busy = %d", r.st.Nodes[0].BusyCycles)
	}
}

func TestIdleBracketSuppressesBusy(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		t.BeginIdle()
		t.Compute(500)
		t.EndIdle()
		t.Compute(100)
	})
	r.eng.Run()
	if r.st.Nodes[0].BusyCycles != 100 {
		t.Fatalf("busy = %d, want 100 (idle compute counted)", r.st.Nodes[0].BusyCycles)
	}
}

func TestEndIdleUnderflowPanics(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	panicked := make(chan interface{}, 1)
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		defer func() { panicked <- recover() }()
		t.EndIdle()
	})
	func() {
		defer func() { recover() }() // the coroutine rethrow surfaces here
		r.eng.Run()
	}()
	select {
	case p := <-panicked:
		if p == nil {
			t.Fatal("EndIdle without BeginIdle did not panic")
		}
	default:
		t.Fatal("thread never ran")
	}
}

func TestPageFaultChargedOnce(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		t.Read(va)
		t.Read(va + 1)
		t.Read(va + 2)
	})
	r.eng.Run()
	if r.st.Nodes[0].PageFaults != 1 {
		t.Fatalf("page faults = %d, want 1 (lazy fill cached)", r.st.Nodes[0].PageFaults)
	}
}

func TestRemoteReadStallAccounting(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		t.Read(va) // fault + remote read
		t.Read(va) // remote read
	})
	r.eng.Run()
	n := r.st.Nodes[0]
	if n.RemoteReads != 2 {
		t.Fatalf("remote reads = %d", n.RemoteReads)
	}
	if n.ReadStall == 0 {
		t.Fatal("no read stall recorded for remote reads")
	}
}

func TestVerifyStallAndResultRead(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		h := t.Fadd(va, 1)
		t.Verify(h) // result not yet there: stalls
		h2 := t.Fadd(va, 1)
		t.Compute(500) // result arrives during compute
		t.Verify(h2)   // no stall
	})
	r.eng.Run()
	n := r.st.Nodes[0]
	if n.VerifyStall == 0 {
		t.Fatal("first verify did not stall")
	}
	if n.RMWIssued != 2 {
		t.Fatalf("RMWs issued = %d", n.RMWIssued)
	}
}

func TestCrossNodeVerifyPanics(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	vp := r.kern.AllocPage(0)
	va := vp.Base()
	var h Handle
	got := make(chan interface{}, 1)
	r.procs[0].Spawn(0, "a", func(t *Thread) {
		h = t.Fadd(va, 1)
		t.Compute(1000)
	})
	r.procs[1].Spawn(1, "b", func(t *Thread) {
		t.Compute(500)
		defer func() { got <- recover() }()
		t.Verify(h) // handle from another node
	})
	func() {
		defer func() { recover() }()
		r.eng.Run()
	}()
	select {
	case p := <-got:
		if p == nil {
			t.Fatal("cross-node Verify did not panic")
		}
	default:
		t.Fatal("thread b never reached Verify")
	}
}

// TestCrossThreadVerifyPanics: a handle belongs to the thread that
// issued it, even on the same node, since only that thread's steps
// tie its ticket to a slot.
func TestCrossThreadVerifyPanics(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	va := r.kern.AllocPage(0).Base()
	var h Handle
	got := make(chan interface{}, 1)
	r.procs[0].Spawn(0, "a", func(t *Thread) {
		h = t.Fadd(va, 1)
		t.Now()
	})
	r.procs[0].Spawn(1, "b", func(t *Thread) {
		defer func() { got <- recover() }()
		t.Verify(h)
	})
	func() {
		defer func() { recover() }()
		r.eng.Run()
	}()
	select {
	case p := <-got:
		if p == nil {
			t.Fatal("Verify of another thread's handle did not panic")
		}
	default:
		t.Fatal("thread b never reached Verify")
	}
}

func TestSwitchOnSyncChargesEveryDispatch(t *testing.T) {
	r := newRig(t, 2, 1, SwitchOnSync, 40)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		h := t.Fadd(va, 1) // yields after issue
		t.Verify(h)
	})
	r.eng.Run()
	if r.st.Nodes[0].CtxSwitches < 2 {
		t.Fatalf("switches = %d, want >= 2 (initial dispatch + post-yield)", r.st.Nodes[0].CtxSwitches)
	}
}

func TestRunToBlockNeverSwitches(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	r.procs[0].Spawn(0, "t", func(t *Thread) {
		t.FaddSync(va, 1)
	})
	r.eng.Run()
	if r.st.Nodes[0].CtxSwitches != 0 {
		t.Fatalf("switches = %d in run-to-block mode", r.st.Nodes[0].CtxSwitches)
	}
}

func TestTwoThreadsShareProcessorFIFO(t *testing.T) {
	// In run-to-block mode a second thread runs only when the first
	// blocks or finishes.
	r := newRig(t, 2, 1, RunToBlock, 0)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	var order []string
	r.procs[0].Spawn(0, "a", func(t *Thread) {
		order = append(order, "a1")
		t.Read(va) // blocks: remote
		order = append(order, "a2")
	})
	r.procs[0].Spawn(1, "b", func(t *Thread) {
		order = append(order, "b1")
	})
	r.eng.Run()
	want := []string{"a1", "b1", "a2"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestThreadMetadata(t *testing.T) {
	r := newRig(t, 2, 1, RunToBlock, 0)
	th := r.procs[1].Spawn(7, "meta", func(t *Thread) {
		if t.ID() != 7 || t.Name() != "meta" || t.Node() != 1 {
			panic("metadata wrong")
		}
		if t.Now() != 0 {
			panic("clock wrong")
		}
	})
	r.eng.Run()
	if !th.Done() {
		t.Fatal("thread failed")
	}
	if len(r.procs[1].Threads()) != 1 || r.procs[1].Node() != 1 {
		t.Fatal("proc accessors wrong")
	}
}

// TestSwitchOnSyncAllocFree pins the SwitchOnSync context switch at
// zero allocations: two threads on one processor each issue a delayed
// operation, yield to the other and verify, over and over, so every
// switch requeues a thread behind the ready list and dispatches the
// one at its front.
func TestSwitchOnSyncAllocFree(t *testing.T) {
	r := newRig(t, 2, 1, SwitchOnSync, 40)
	vp := r.kern.AllocPage(1)
	va := vp.Base()
	for id := 0; id < 2; id++ {
		r.procs[0].Spawn(id, "t", func(t *Thread) {
			for {
				t.Verify(t.Fadd(va, 1))
			}
		})
	}
	r.eng.RunLimit(2000) // warm-up: coroutine stacks, queue pools
	avg := testing.AllocsPerRun(20, func() { r.eng.RunLimit(500) })
	if avg != 0 {
		t.Fatalf("SwitchOnSync switching allocates %v objects per run, want 0", avg)
	}
	if r.st.Nodes[0].CtxSwitches < 100 {
		t.Fatalf("%d context switches, want the run to keep switching", r.st.Nodes[0].CtxSwitches)
	}
}

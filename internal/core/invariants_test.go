package core

import (
	"strings"
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
)

// invariantRig builds a quiesced machine with one page replicated on
// nodes 0 (master), 1 and 2, and returns it with its checker.
func invariantRig(t *testing.T) (*Machine, *InvariantChecker, memory.VAddr) {
	t.Helper()
	cfg := DefaultConfig(2, 2)
	cfg.CheckInvariants = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	va := m.Alloc(0, 1)
	m.Replicate(va, 1, 2)
	m.Poke(va+3, 42)
	ic := m.Invariants()
	if ic == nil {
		t.Fatal("CheckInvariants set but Invariants() is nil")
	}
	if err := ic.Check(); err != nil {
		t.Fatalf("healthy machine fails invariants: %v", err)
	}
	if !ic.Quiescent() {
		t.Fatal("idle machine not quiescent")
	}
	return m, ic, va
}

// cm returns node n's coherence manager frame for va's page.
func frameOn(m *Machine, va memory.VAddr, n mesh.NodeID) memory.PPage {
	for _, g := range m.Kernel().CopyList(va.Page()) {
		if g.Node == n {
			return g.Page
		}
	}
	panic("no copy on node")
}

func TestInvariantCatchesForkedMaster(t *testing.T) {
	m, ic, va := invariantRig(t)
	// Point node 1's master at itself: two nodes now believe they own
	// the master copy.
	f := frameOn(m, va, 1)
	m.cms[1].SetMaster(f, memory.GPage{Node: 1, Page: f})
	err := ic.Check()
	if err == nil || !strings.Contains(err.Error(), "master") {
		t.Fatalf("forked master not caught: %v", err)
	}
}

func TestInvariantCatchesBrokenChain(t *testing.T) {
	m, ic, va := invariantRig(t)
	// Truncate the chain at the middle copy: the tail becomes
	// unreachable by updates.
	mid := m.Kernel().CopyList(va.Page())[1]
	m.cms[mid.Node].SetNext(mid.Page, memory.NilGPage)
	err := ic.Check()
	if err == nil || !strings.Contains(err.Error(), "next") {
		t.Fatalf("broken copy-list chain not caught: %v", err)
	}
}

func TestInvariantCatchesChainCycle(t *testing.T) {
	m, ic, va := invariantRig(t)
	// Point the tail back at the master: a cycle that would propagate
	// updates forever.
	m.cms[2].SetNext(frameOn(m, va, 2), memory.GPage{Node: 0, Page: frameOn(m, va, 0)})
	if err := ic.Check(); err == nil {
		t.Fatal("copy-list cycle not caught")
	}
}

func TestInvariantCatchesDivergedReplica(t *testing.T) {
	m, ic, va := invariantRig(t)
	// Corrupt one word of node 2's replica behind the protocol's back.
	m.mems[2].Write(frameOn(m, va, 2), 3, 999)
	err := ic.Check()
	if err == nil {
		t.Fatal("diverged replica not caught at quiescence")
	}
}

// TestInvariantViolationFailsRun pins the end-to-end path: a run over a
// machine whose structures are corrupted mid-flight reports the
// violation from Run rather than finishing silently.
func TestInvariantViolationFailsRun(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	cfg.CheckInvariants = true
	cfg.InvariantPeriod = 100
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	va := m.Alloc(0, 1)
	m.Replicate(va, 1)
	m.Spawn(0, func(th *proc.Thread) {
		for i := 0; i < 50; i++ {
			th.Write(va+memory.VAddr(i%8), memory.Word(i))
			th.Compute(50)
		}
		th.Fence()
	})
	// Corrupt the replica's master pointer before the run; the periodic
	// tick must trip on it.
	m.cms[1].SetMaster(frameOn(m, va, 1), memory.GPage{Node: 1, Page: frameOn(m, va, 1)})
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "invariant") {
		t.Fatalf("corrupted run returned %v, want invariant violation", err)
	}
}

// TestInvariantCheckerIdleWhenOff pins that a machine without
// CheckInvariants has no checker and schedules no periodic work.
func TestInvariantCheckerIdleWhenOff(t *testing.T) {
	m, err := NewMachine(DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Invariants() != nil {
		t.Fatal("checker exists despite CheckInvariants=false")
	}
}

// TestInvariantCheckingLeavesRunUnchanged pins that the periodic
// invariant check observes the run without perturbing it: a replicated
// write/read program reports the same elapsed cycles, engine event
// count and counters with checking on and off, on one engine and on
// several. A check that scheduled its own events would keep the engine
// alive past the last real event and show up in all three.
func TestInvariantCheckingLeavesRunUnchanged(t *testing.T) {
	type outcome struct {
		Elapsed   sim.Cycles
		Processed uint64
		Totals    stats.Node
		Messages  uint64
	}
	run := func(shards int, check bool) outcome {
		cfg := DefaultConfig(4, 4)
		cfg.Shards = shards
		cfg.CheckInvariants = check
		cfg.InvariantPeriod = 1000
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]memory.VAddr, 4)
		for i := range pages {
			home := i * 5
			pages[i] = m.Alloc(mesh.NodeID(home), 1)
			m.Replicate(pages[i], mesh.NodeID((home+3)%16), mesh.NodeID((home+7)%16))
		}
		for n := 0; n < m.Nodes(); n++ {
			n := n
			m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
				for i := 0; i < 30; i++ {
					th.Write(pages[(n+i)%4]+memory.VAddr(n), memory.Word(i))
					th.Read(pages[(n+i+1)%4] + memory.VAddr(i))
					th.Compute(sim.Cycles(10 + n))
				}
				th.Fence()
			})
		}
		elapsed, err := m.Run()
		if err != nil {
			t.Fatalf("shards=%d check=%v: %v", shards, check, err)
		}
		o := outcome{Elapsed: elapsed, Totals: m.Stats().Totals(), Messages: m.Stats().Messages()}
		for _, e := range m.engines {
			o.Processed += e.Processed()
		}
		return o
	}
	for _, k := range []int{1, 2, 4} {
		off, on := run(k, false), run(k, true)
		if off != on {
			t.Errorf("shards=%d: checking changed the run:\n off %+v\n  on %+v", k, off, on)
		}
	}
}

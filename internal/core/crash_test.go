package core_test

import (
	"fmt"
	"strings"
	"testing"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
)

// runMasterCrash is the directed failover scenario: one page mastered
// on node 3 with replicas on nodes 0 and 5, writers hammering it from
// both replica nodes (plus node 3 itself) and a reader on node 2 whose
// nearest copy is the master — then node 3 crashes mid-run and restarts
// 8000 cycles later. Each writer ends with a sentinel store after the
// recovery settles, so the final memory image is deterministic despite
// the lost-write semantics of force-retired in-flight stores.
func runMasterCrash(t *testing.T) (*core.Machine, sim.Cycles, memory.VAddr) {
	t.Helper()
	cfg := core.DefaultConfig(4, 2)
	cfg.Faults = mesh.FaultConfig{
		Crashes: []mesh.CrashEvent{{Node: 3, At: 3000, Duration: 8000}},
	}
	cfg.CheckInvariants = true
	cfg.InvariantPeriod = 500
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Alloc(3, 1)
	m.Replicate(base, 0, 5)
	writers := []mesh.NodeID{0, 5, 3}
	for k, node := range writers {
		k, node := k, node
		m.Spawn(node, func(th *proc.Thread) {
			off := memory.VAddr(10 + k)
			for i := 0; i < 120; i++ {
				th.Write(base+off, memory.Word(i+1))
				th.Fence()
				th.Compute(20)
			}
			// By now every crash epoch is over; the sentinel is the last
			// write to this offset and must survive into every copy.
			th.Write(base+off, memory.Word(0xC0DE00+k))
			th.Fence()
		})
	}
	m.Spawn(2, func(th *proc.Thread) {
		for i := 0; i < 150; i++ {
			th.Read(base + memory.VAddr(uint32(40+i%8)))
			th.Compute(30)
		}
	})
	elapsed, err := m.Run()
	if err != nil {
		t.Fatalf("crash run failed: %v", err)
	}
	return m, elapsed, base
}

// TestMasterCrashFailover crashes a page's master mid-workload and
// asserts the failover protocol end to end: the outage is detected and
// survives exactly one failover epoch, the next copy-list entry is
// promoted to master, writers on the survivors converge, the restarted
// node rejoins as an ordinary copy, and the runtime invariant checker
// holds throughout.
func TestMasterCrashFailover(t *testing.T) {
	m, elapsed, base := runMasterCrash(t)
	first := digestOf(m, elapsed, []memory.VAddr{base}, nil)
	st := m.Stats()
	cb := st.Crash()
	if cb.Crashes != 1 || cb.Restarts != 1 {
		t.Fatalf("crash/restart not injected: %+v", cb)
	}
	if cb.Failovers != 1 {
		t.Fatalf("want exactly one failover epoch, got %+v", cb)
	}
	if cb.MastersPromoted != 1 {
		t.Fatalf("master death must promote a survivor: %+v", cb)
	}
	if cb.PagesFailedOver == 0 || cb.PagesResynced == 0 {
		t.Fatalf("failover skipped the resync cascade: %+v", cb)
	}
	if cb.RecoveryMax == 0 {
		t.Fatalf("recovery time never observed: %+v", cb)
	}
	if m.Mesh().Stats().CrashDropped == 0 {
		t.Fatal("no message was ever dropped at the crashed node")
	}
	vp := base.Page()
	list := m.Kernel().CopyList(vp)
	if list[0].Node == 3 {
		t.Fatalf("node 3 still master after its crash: %v", list)
	}
	if !m.Kernel().HasCopy(vp, 3) {
		t.Fatalf("restarted node never rejoined the copy-list: %v", list)
	}
	if cb.RejoinCopies == 0 {
		t.Fatalf("rejoin not counted: %+v", cb)
	}
	for k := 0; k < 3; k++ {
		if got := m.Peek(base + memory.VAddr(10+k)); got != memory.Word(0xC0DE00+k) {
			t.Fatalf("writer %d sentinel lost: %#x", k, got)
		}
	}
	ic := m.Invariants()
	if ic.Checks == 0 {
		t.Fatal("invariant checker never ran")
	}
	if err := ic.Check(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	// Determinism: the identical script reproduces the run byte for byte.
	m2, elapsed2, base2 := runMasterCrash(t)
	if d := digestOf(m2, elapsed2, []memory.VAddr{base2}, nil).diff(first); d != "" {
		t.Fatalf("two crash runs diverged: %s", d)
	}
}

// TestWakeDuringOutage aims a wake at a sleeper whose node is down.
// The wake retransmits into the outage until the failover epoch finds
// it parked toward the dead node and re-sends it under the reset
// transport pair; it keeps retransmitting until the node restarts, and
// then wakes the sleeper, whose thread survived the outage. The run
// must finish: no deadlock, no panic over the parked wake.
func TestWakeDuringOutage(t *testing.T) {
	const crashAt, outage, wakeAt = 1000, 12000, 2000
	cfg := core.DefaultConfig(4, 1)
	cfg.Faults = mesh.FaultConfig{
		Crashes: []mesh.CrashEvent{{Node: 3, At: crashAt, Duration: outage}},
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resumedAt sim.Cycles
	sleeper := m.Spawn(3, func(th *proc.Thread) {
		th.Sleep()
		resumedAt = th.Now()
	})
	m.Spawn(0, func(th *proc.Thread) {
		th.Compute(wakeAt)
		th.Wake(sleeper)
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run with a wake into the outage: %v", err)
	}
	if !sleeper.Done() {
		t.Fatal("sleeper never woke")
	}
	if resumedAt < crashAt+outage {
		t.Fatalf("sleeper resumed at %d, during the outage [%d, %d)", resumedAt, crashAt, crashAt+outage)
	}
	st := m.Stats()
	if cb := st.Crash(); cb.Failovers != 1 || cb.Restarts != 1 || cb.RecoveryMax >= outage {
		t.Fatalf("want one failover, run at detection inside the outage, and one restart: %+v", cb)
	}
	// The failover's re-send is counted like every redirected message.
	if st.MsgWake != 2 {
		t.Fatalf("MsgWake = %d, want 2 (the wake and its failover re-send)", st.MsgWake)
	}
}

// TestCrashConfigRejections pins the build-time gates: crash scripts
// are incompatible with competitive replication and invalidate mode,
// and the mesh validates the script itself. A sharded crash script is
// accepted; CrashFuzz/staggered runs one at two engines.
func TestCrashConfigRejections(t *testing.T) {
	crash := []mesh.CrashEvent{{Node: 1, At: 100, Duration: 50}}
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"competitive", func(c *core.Config) { c.CompetitiveThreshold = 8 }},
		{"invalidate", func(c *core.Config) { c.InvalidateMode = true }},
		{"zero-duration", func(c *core.Config) { c.Faults.Crashes[0].Duration = 0 }},
		{"out-of-mesh", func(c *core.Config) { c.Faults.Crashes[0].Node = 64 }},
		{"overlap", func(c *core.Config) {
			c.Faults.Crashes = append(c.Faults.Crashes,
				mesh.CrashEvent{Node: 1, At: 120, Duration: 50})
		}},
	}
	for _, tc := range cases {
		cfg := core.DefaultConfig(4, 2)
		cfg.Faults.Crashes = append([]mesh.CrashEvent{}, crash...)
		tc.mut(&cfg)
		if _, err := core.NewMachine(cfg); err == nil {
			t.Errorf("%s: config accepted, want rejection", tc.name)
		}
	}
	// The unmutated config is valid.
	cfg := core.DefaultConfig(4, 2)
	cfg.Faults.Crashes = crash
	if _, err := core.NewMachine(cfg); err != nil {
		t.Errorf("baseline crash config rejected: %v", err)
	}
}

// TestRestartedThreadKeepsLane crashes the node a thread runs on. Its
// processor resumes the thread when the restart replays at a barrier,
// so the resuming wake carries the replay's key; every slice must still
// run as the thread's own node's activity, at one engine and at two.
func TestRestartedThreadKeepsLane(t *testing.T) {
	for _, k := range []int{1, 2} {
		cfg := core.DefaultConfig(4, 2)
		cfg.Shards = k
		cfg.Faults.Crashes = []mesh.CrashEvent{{Node: 3, At: 1000, Duration: 2000}}
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := m.Alloc(0, 1)
		eng := m.Mesh().EngineFor(3)
		var lanes []int32
		m.Spawn(3, func(th *proc.Thread) {
			for i := 0; i < 60; i++ {
				lanes = append(lanes, eng.Lane())
				th.Write(base+memory.VAddr(i), memory.Word(i))
				th.Compute(50)
			}
		})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Crash().Restarts != 1 {
			t.Fatalf("shards=%d: node 3 never restarted", k)
		}
		for i, l := range lanes {
			if l != 3 {
				t.Errorf("shards=%d: slice %d ran on lane %d, want 3", k, i, l)
			}
		}
	}
}

// TestLastCopiesDownIsLoud crashes both holders of a page. Node 2
// restarts while node 1 is still down, so no live copy is left to
// rejoin from: node 2 does not rejoin, and node 1's failover reports
// the data loss instead of promoting node 2's empty frame.
func TestLastCopiesDownIsLoud(t *testing.T) {
	cfg := core.DefaultConfig(4, 2)
	cfg.Faults.Crashes = []mesh.CrashEvent{{Node: 1, At: 1000, Duration: 5000}, {Node: 2, At: 1100, Duration: 1000}}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Replicate(m.Alloc(1, 1), 2)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "only copy") {
			t.Fatalf("want the only-copy panic, got %v", r)
		}
	}()
	m.Run()
}

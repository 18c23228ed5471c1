package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
)

// crashFingerprint condenses everything observable about a crash run —
// elapsed time, every crash/recovery counter, network stats, and memory
// samples — so run-twice determinism checks compare one string.
func crashFingerprint(m *Machine, elapsed sim.Cycles, bases []memory.VAddr) string {
	st := m.Stats()
	fp := fmt.Sprintf("elapsed=%d crash=%+v net=%+v msgs=%d retrans=%d",
		elapsed, st.Crash(), m.Mesh().Stats(), st.Messages(), st.Retransmits)
	for _, b := range bases {
		for off := uint32(0); off < 128; off += 13 {
			fp += fmt.Sprintf(" %d", m.Peek(b+memory.VAddr(off)))
		}
	}
	return fp
}

// runMasterCrash is the directed failover scenario: one page mastered
// on node 3 with replicas on nodes 0 and 5, writers hammering it from
// both replica nodes (plus node 3 itself) and a reader on node 2 whose
// nearest copy is the master — then node 3 crashes mid-run and restarts
// 8000 cycles later. Each writer ends with a sentinel store after the
// recovery settles, so the final memory image is deterministic despite
// the lost-write semantics of force-retired in-flight stores.
func runMasterCrash(t *testing.T) (*Machine, sim.Cycles, memory.VAddr) {
	t.Helper()
	cfg := DefaultConfig(4, 2)
	cfg.Faults = mesh.FaultConfig{
		Crashes: []mesh.CrashEvent{{Node: 3, At: 3000, Duration: 8000}},
	}
	cfg.CheckInvariants = true
	cfg.InvariantPeriod = 500
	m, err := NewMachine(cfg)
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
	a := crashFingerprint(m, elapsed, []memory.VAddr{base})
	m2, elapsed2, base2 := runMasterCrash(t)
	b := crashFingerprint(m2, elapsed2, []memory.VAddr{base2})
	if a != b {
		t.Fatalf("two crash runs diverged\n%s\n%s", a, b)
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
	cfg := DefaultConfig(4, 1)
	cfg.Faults = mesh.FaultConfig{
		Crashes: []mesh.CrashEvent{{Node: 3, At: crashAt, Duration: outage}},
	}
	m, err := NewMachine(cfg)
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

// runCrashFuzz drives the protocol-fuzz workload with a crash script —
// optionally on top of message loss — and the invariant checker armed.
// Every page keeps at least one replica on a node the script never
// crashes, as the failover protocol requires. Delta-sum validation is
// skipped: a delayed op re-issued across a crash epoch may apply twice,
// and a force-retired write may be lost (both documented in
// PROTOCOL.md); convergence and invariants are still fully checked.
func runCrashFuzz(t *testing.T, seed int64, f mesh.FaultConfig, shards int) string {
	t.Helper()
	cfg := DefaultConfig(4, 2)
	cfg.Faults = f
	cfg.Shards = shards
	cfg.CheckInvariants = true
	cfg.InvariantPeriod = 1000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := make(map[mesh.NodeID]bool)
	for _, e := range f.Crashes {
		crashed[e.Node] = true
	}
	safe := []mesh.NodeID{}
	for n := mesh.NodeID(0); int(n) < 8; n++ {
		if !crashed[n] {
			safe = append(safe, n)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const pages = 3
	bases := make([]memory.VAddr, pages)
	for i := range bases {
		bases[i] = m.Alloc(mesh.NodeID(rng.Intn(8)), 1)
		// One replica on a never-crashed node guarantees a survivor.
		m.Replicate(bases[i], safe[rng.Intn(len(safe))])
		for k := rng.Intn(3); k > 0; k-- {
			m.Replicate(bases[i], mesh.NodeID(rng.Intn(8)))
		}
	}
	for n := 0; n < 8; n++ {
		tr := rand.New(rand.NewSource(seed*100 + int64(n)))
		n := n
		m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
			for op := 0; op < 40; op++ {
				pg := tr.Intn(pages)
				switch tr.Intn(8) {
				case 0, 1:
					th.Read(bases[pg] + memory.VAddr(uint32(101+tr.Intn(50))))
				case 2, 3:
					th.Write(bases[pg]+memory.VAddr(uint32(1+10*n+tr.Intn(10))),
						memory.Word(tr.Uint32())&^memory.TopBit)
				case 4:
					th.Verify(th.Fadd(bases[pg], int32(tr.Intn(21)-10)))
				case 5:
					th.Fence()
				default:
					th.Compute(sim.Cycles(tr.Intn(150)))
				}
			}
			th.Fence()
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		t.Fatalf("seed %d crashes %+v: %v", seed, f.Crashes, err)
	}
	if got := m.Stats().Crash().Crashes; got != uint64(len(f.Crashes)) {
		t.Fatalf("seed %d: %d crashes injected, want %d", seed, got, len(f.Crashes))
	}
	if ic := m.Invariants(); ic.Checks == 0 {
		t.Fatalf("seed %d: invariant checker never ran", seed)
	}
	return crashFingerprint(m, elapsed, bases)
}

// TestCrashFuzz chaos-tests crash epochs: two staggered outages (the
// second short enough that its restart, not detection, triggers the
// failover), alone and combined with message loss, across seeds — and
// pins run-twice determinism of stats and memory.
func TestCrashFuzz(t *testing.T) {
	scripts := []mesh.FaultConfig{
		{Crashes: []mesh.CrashEvent{
			{Node: 2, At: 2000, Duration: 4000},
			{Node: 5, At: 7000, Duration: 600},
		}},
		{Seed: 7, DropRate: 0.01, Crashes: []mesh.CrashEvent{
			{Node: 2, At: 2500, Duration: 3000},
			{Node: 6, At: 8000, Duration: 800},
		}},
	}
	for _, f := range scripts {
		for seed := int64(0); seed < 3; seed++ {
			a := runCrashFuzz(t, seed, f, 1)
			b := runCrashFuzz(t, seed, f, 1)
			if a != b {
				t.Fatalf("seed %d crashes %+v: two runs diverged\n%s\n%s", seed, f.Crashes, a, b)
			}
		}
	}
}

// TestCrashConfigRejections pins the build-time gates: crash scripts
// are incompatible with competitive replication and invalidate mode,
// and the mesh validates the script itself. A sharded crash script is
// accepted, and its run equals the one-engine run.
func TestCrashConfigRejections(t *testing.T) {
	crash := []mesh.CrashEvent{{Node: 1, At: 100, Duration: 50}}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"competitive", func(c *Config) { c.CompetitiveThreshold = 8 }},
		{"invalidate", func(c *Config) { c.InvalidateMode = true }},
		{"zero-duration", func(c *Config) { c.Faults.Crashes[0].Duration = 0 }},
		{"out-of-mesh", func(c *Config) { c.Faults.Crashes[0].Node = 64 }},
		{"overlap", func(c *Config) {
			c.Faults.Crashes = append(c.Faults.Crashes,
				mesh.CrashEvent{Node: 1, At: 120, Duration: 50})
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(4, 2)
		cfg.Faults.Crashes = append([]mesh.CrashEvent{}, crash...)
		tc.mut(&cfg)
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("%s: config accepted, want rejection", tc.name)
		}
	}
	// The unmutated config is valid.
	cfg := DefaultConfig(4, 2)
	cfg.Faults.Crashes = crash
	if _, err := NewMachine(cfg); err != nil {
		t.Errorf("baseline crash config rejected: %v", err)
	}
	// sharded: two staggered outages, one failed over at detection and
	// one at its restart, on two engines.
	f := mesh.FaultConfig{Crashes: []mesh.CrashEvent{
		{Node: 2, At: 2000, Duration: 4000},
		{Node: 5, At: 7000, Duration: 600},
	}}
	if a, b := runCrashFuzz(t, 1, f, 1), runCrashFuzz(t, 1, f, 2); a != b {
		t.Errorf("sharded: the K=2 crash run diverged from K=1\n%s\n%s", b, a)
	}
}

// TestRestartedThreadKeepsLane crashes the node a thread runs on. Its
// processor resumes the thread when the restart replays at a barrier,
// so the resuming wake carries the replay's key; every slice must still
// run as the thread's own node's activity, at one engine and at two.
func TestRestartedThreadKeepsLane(t *testing.T) {
	for _, k := range []int{1, 2} {
		cfg := DefaultConfig(4, 2)
		cfg.Shards = k
		cfg.Faults.Crashes = []mesh.CrashEvent{{Node: 3, At: 1000, Duration: 2000}}
		m, err := NewMachine(cfg)
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
	cfg := DefaultConfig(4, 2)
	cfg.Faults.Crashes = []mesh.CrashEvent{{Node: 1, At: 1000, Duration: 5000}, {Node: 2, At: 1100, Duration: 1000}}
	m, err := NewMachine(cfg)
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

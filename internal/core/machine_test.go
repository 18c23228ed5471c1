package core

import (
	"runtime"
	"strings"
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/timing"
)

func newMachine(t *testing.T, w, h int) *Machine {
	t.Helper()
	m, err := NewMachine(DefaultConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewMachine(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig(2, 2)
	cfg.Timing.MaxPendingWrites = 0
	if _, err := NewMachine(cfg); err == nil {
		t.Error("invalid timing accepted")
	}
	cfg = DefaultConfig(2, 2)
	cfg.Mode = proc.SwitchOnSync
	if _, err := NewMachine(cfg); err == nil {
		t.Error("SwitchOnSync without cost accepted")
	}
	cfg.SwitchCost = 40
	if _, err := NewMachine(cfg); err != nil {
		t.Errorf("valid CS config rejected: %v", err)
	}
}

func TestSingleThreadReadWrite(t *testing.T) {
	m := newMachine(t, 2, 2)
	base := m.Alloc(0, 1)
	var got memory.Word
	m.Spawn(0, func(th *proc.Thread) {
		th.Write(base+3, 99)
		got = th.Read(base + 3)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("read-your-write = %d", got)
	}
	if m.Peek(base+3) != 99 {
		t.Fatal("Peek mismatch")
	}
}

func TestRemoteAccessAcrossNodes(t *testing.T) {
	m := newMachine(t, 2, 2)
	base := m.Alloc(3, 1) // page homed on node 3
	m.Poke(base, 7)
	var got memory.Word
	m.Spawn(0, func(th *proc.Thread) {
		got = th.Read(base)
		th.Write(base, 8)
		th.Fence()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 || m.Peek(base) != 8 {
		t.Fatalf("got=%d final=%d", got, m.Peek(base))
	}
	n0 := m.Stats().Nodes[0]
	if n0.RemoteReads != 1 || n0.RemoteWrites != 1 || n0.PageFaults != 1 {
		t.Fatalf("node 0 stats: %+v", n0)
	}
}

func TestProducerConsumerWithFence(t *testing.T) {
	// The weak-ordering example of §2.1: buffer + flag in different
	// pages; the producer fences between filling the buffer and
	// setting the flag, so the consumer never observes the flag without
	// the data.
	m := newMachine(t, 4, 1)
	buf := m.Alloc(1, 1)
	flag := m.Alloc(2, 1)
	// Replicate both on the consumer's node so it reads locally (the
	// risky case for ordering).
	m.Replicate(buf, 3)
	m.Replicate(flag, 3)
	const items = 20
	var sum memory.Word
	m.Spawn(0, func(th *proc.Thread) {
		for i := 0; i < items; i++ {
			th.Write(buf+memory.VAddr(i), memory.Word(i+1))
		}
		th.Fence() // all buffer writes visible everywhere
		th.Write(flag, 1)
	})
	m.Spawn(3, func(th *proc.Thread) {
		for th.Read(flag) == 0 {
			th.Compute(50)
		}
		for i := 0; i < items; i++ {
			sum += th.Read(buf + memory.VAddr(i))
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if want := memory.Word(items * (items + 1) / 2); sum != want {
		t.Fatalf("consumer sum = %d, want %d (saw stale buffer)", sum, want)
	}
}

func TestDelayedOpsOverlapTiming(t *testing.T) {
	// Eight delayed fadds to a remote page issued back to back must
	// overlap: total time far below eight serialized round trips.
	cfgSerial := func(m *Machine, base memory.VAddr) sim.Cycles {
		m.Spawn(0, func(th *proc.Thread) {
			for i := 0; i < 8; i++ {
				th.FaddSync(base+memory.VAddr(i), 1) // blocking style
			}
		})
		el, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	cfgDelayed := func(m *Machine, base memory.VAddr) sim.Cycles {
		m.Spawn(0, func(th *proc.Thread) {
			var hs [8]proc.Handle
			for i := 0; i < 8; i++ {
				hs[i] = th.Fadd(base+memory.VAddr(i), 1)
			}
			for i := 0; i < 8; i++ {
				th.Verify(hs[i])
			}
		})
		el, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	m1 := newMachine(t, 4, 1)
	b1 := m1.Alloc(3, 1)
	serial := cfgSerial(m1, b1)
	m2 := newMachine(t, 4, 1)
	b2 := m2.Alloc(3, 1)
	overlapped := cfgDelayed(m2, b2)
	if overlapped >= serial {
		t.Fatalf("delayed ops did not overlap: %d >= %d", overlapped, serial)
	}
	for i := 0; i < 8; i++ {
		if m2.Peek(b2+memory.VAddr(i)) != 1 {
			t.Fatal("a delayed fadd was lost")
		}
	}
}

func TestConcurrentFaddsSerializeAtMaster(t *testing.T) {
	m := newMachine(t, 4, 4)
	ctr := m.Alloc(5, 1)
	const perThread = 10
	for n := 0; n < 16; n++ {
		m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
			for i := 0; i < perThread; i++ {
				th.FaddSync(ctr, 1)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(ctr); got != 16*perThread {
		t.Fatalf("counter = %d, want %d", got, 16*perThread)
	}
}

func TestSleepWake(t *testing.T) {
	m := newMachine(t, 2, 1)
	flagVA := m.Alloc(0, 1)
	var sleeper *proc.Thread
	order := ""
	sleeper = m.Spawn(0, func(th *proc.Thread) {
		order += "sleep;"
		th.Sleep()
		order += "woke;"
	})
	m.Spawn(1, func(th *proc.Thread) {
		th.Compute(500)
		order += "waking;"
		th.Wake(sleeper)
		th.Write(flagVA, 1)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if order != "sleep;waking;woke;" {
		t.Fatalf("order = %q", order)
	}
}

// TestWakeLatency pins the cost of a wake_up(): a wake of a thread on
// another node is a 1-flit message that resumes the sleeper exactly one
// uncontended network latency after the Wake (Base + 3·PerHop across
// the 3 hops of a 4×1 mesh), while a wake of a thread on the same node
// resumes it in the same cycle once the waker gives up the processor.
func TestWakeLatency(t *testing.T) {
	for _, tc := range []struct {
		name         string
		waker        mesh.NodeID
		wantLatency  sim.Cycles
		wantMessages uint64
	}{
		{"3 hops", 0, mesh.Base + 3*mesh.PerHop, 1},
		{"same node", 3, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, 4, 1)
			var wokeAt, resumedAt sim.Cycles
			sleeper := m.Spawn(3, func(th *proc.Thread) {
				th.Sleep()
				resumedAt = th.Now()
			})
			m.Spawn(tc.waker, func(th *proc.Thread) {
				th.Compute(500) // the sleeper is asleep by now
				wokeAt = th.Now()
				th.Wake(sleeper)
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := resumedAt-wokeAt, tc.wantLatency; got != want {
				t.Errorf("sleeper resumed %d cycles after the Wake, want %d", got, want)
			}
			if got := m.Stats().MsgWake; got != tc.wantMessages {
				t.Errorf("MsgWake = %d, want %d", got, tc.wantMessages)
			}
		})
	}
}

func TestWakeBeforeSleepAbsorbed(t *testing.T) {
	m := newMachine(t, 2, 1)
	var target *proc.Thread
	done := false
	target = m.Spawn(0, func(th *proc.Thread) {
		th.Compute(1000) // wake arrives during this
		th.Sleep()       // absorbed, no deadlock
		done = true
	})
	m.Spawn(1, func(th *proc.Thread) {
		th.Wake(target)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("sleeper never finished")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := newMachine(t, 2, 1)
	m.Spawn(0, func(th *proc.Thread) {
		th.Sleep() // nobody wakes
	})
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v", err)
	}
}

func TestSwitchOnSyncInterleavesThreads(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Mode = proc.SwitchOnSync
	cfg.SwitchCost = 40
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctr := m.Alloc(1, 1) // remote counter: sync ops have latency to hide
	var trace []int
	for k := 0; k < 2; k++ {
		k := k
		m.Spawn(0, func(th *proc.Thread) {
			for i := 0; i < 3; i++ {
				h := th.Fadd(ctr, 1) // switch happens here
				trace = append(trace, k)
				th.Verify(h)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Peek(ctr) != 6 {
		t.Fatalf("counter = %d", m.Peek(ctr))
	}
	// The two threads must interleave (0,1,0,1,...), not run serially.
	interleaved := false
	for i := 0; i+1 < len(trace); i++ {
		if trace[i] != trace[i+1] {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatalf("threads ran serially: %v", trace)
	}
	if m.Stats().Nodes[0].CtxSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestReplicationReducesRemoteReads(t *testing.T) {
	run := func(replicate bool) uint64 {
		m := newMachine(t, 4, 1)
		data := m.Alloc(3, 1)
		if replicate {
			m.Replicate(data, 0)
		}
		m.Spawn(0, func(th *proc.Thread) {
			for i := 0; i < 100; i++ {
				th.Read(data + memory.VAddr(i%32))
			}
		})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Nodes[0].RemoteReads
	}
	without := run(false)
	with := run(true)
	if without != 100 {
		t.Fatalf("unreplicated remote reads = %d", without)
	}
	if with != 0 {
		t.Fatalf("replicated remote reads = %d", with)
	}
}

func TestCompetitiveReplicationKicksIn(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.CompetitiveThreshold = 20
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(3, 1)
	m.Spawn(0, func(th *proc.Thread) {
		for i := 0; i < 200; i++ {
			th.Read(data)
			th.Compute(100)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Kernel().HasCopy(data.Page(), 0) {
		t.Fatal("competitive policy never replicated the hot page")
	}
	st := m.Stats().Nodes[0]
	if st.RemoteReads == 0 || st.LocalReads == 0 {
		t.Fatalf("expected a remote→local transition, got %+v", st)
	}
	if st.RemoteReads >= 200 {
		t.Fatal("all reads stayed remote despite replication")
	}
}

func TestUtilizationBounds(t *testing.T) {
	m := newMachine(t, 2, 1)
	base := m.Alloc(0, 1)
	m.Spawn(0, func(th *proc.Thread) {
		th.Compute(10000)
		th.Write(base, 1)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	u := m.Utilization()
	if u <= 0.5 || u > 1.0 {
		t.Fatalf("compute-bound utilization = %f", u)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() sim.Cycles {
		m := newMachine(t, 4, 4)
		data := m.Alloc(0, 2)
		m.ReplicateRange(data, 2, 5, 10)
		for n := 0; n < 16; n++ {
			n := n
			m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
				for i := 0; i < 20; i++ {
					th.FaddSync(data+memory.VAddr((n+i)%64), 1)
					th.Compute(37)
				}
			})
		}
		el, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestTimingMatchesPaperCostAnatomy(t *testing.T) {
	// A single blocking remote fadd between adjacent nodes: issue (25)
	// + one-way (12) + CM (8) + exec (39) + one-way (12) + result read
	// (10) = 106 cycles.
	m := newMachine(t, 2, 1)
	ctr := m.Alloc(1, 1)
	var elapsed sim.Cycles
	m.Spawn(0, func(th *proc.Thread) {
		th.Read(ctr) // touch to fault the mapping in before measuring
		s := th.Now()
		th.FaddSync(ctr, 1)
		elapsed = th.Now() - s
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := timing.DelayedIssue + 12 + timing.CMProcess + timing.RMWSimple + 12 + timing.ResultRead
	if elapsed != want {
		t.Fatalf("blocking fadd = %d cycles, want %d", elapsed, want)
	}
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewMachineAllocBudget pins what building a 16x16 machine costs
// on the heap: per-node hardware state is allocated where a run first
// uses it (a cache's tags on its first read, a page table's slots and
// a TLB's ways on its first install), so the build itself stays under
// 530 kB.
func TestNewMachineAllocBudget(t *testing.T) {
	const budget = 530 << 10
	var m *Machine
	var err error
	got := heapBytes(func() { m, err = NewMachine(DefaultConfig(16, 16)) })
	if err != nil {
		t.Fatal(err)
	}
	if got >= budget {
		t.Fatalf("NewMachine(DefaultConfig(16, 16)) allocated %d bytes, budget %d", got, budget)
	}
	t.Logf("NewMachine(DefaultConfig(16, 16)) allocated %d bytes", got)
	runtime.KeepAlive(m)
}

// TestPrefaultAllocBudget pins the page tables of the record store's
// shape, as BenchmarkPrefault builds it: every node of a 16x16 machine
// prefaults 512 record pages and the counter page. Each table grows to
// 88 slots (1,408 bytes) and 65 eight-page leaves (96 bytes each), 64
// of them in one block: 7,648 bytes, 1.96 MB for the 256 tables, pinned
// under 2 MB.
func TestPrefaultAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what growing a slice allocates")
	}
	const recordPages, budget = 512, 2 << 20
	m := newMachine(t, 16, 16)
	nodes := m.Nodes()
	homes := make([]mesh.NodeID, recordPages)
	for p := range homes {
		homes[p] = mesh.NodeID(p / (recordPages / nodes) % nodes)
	}
	records := m.AllocHomed(homes...)
	counters := m.Alloc(mesh.NodeID(nodes-1), 1)
	got := heapBytes(func() {
		for n := 0; n < nodes; n++ {
			m.Prefault(mesh.NodeID(n), records, recordPages)
			m.Prefault(mesh.NodeID(n), counters, 1)
		}
	})
	if got >= budget {
		t.Fatalf("prefaulting %d pages on %d nodes allocated %d bytes, budget %d", recordPages+1, nodes, got, budget)
	}
	t.Logf("prefaulting %d pages on %d nodes allocated %d bytes", recordPages+1, nodes, got)
}

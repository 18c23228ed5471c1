package plus_test

import (
	"slices"
	"testing"

	"plus"
)

// These tests exercise the exported API exactly as a downstream user
// would; the protocol internals are covered in internal/*.

func TestPublicAPISmoke(t *testing.T) {
	m, err := plus.New(plus.DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 16 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	data := m.Alloc(0, 2)
	m.Replicate(data, 5)
	m.ReplicateRange(data, 2, 10)
	m.Poke(data+7, 42)
	if m.Peek(data+7) != 42 {
		t.Fatal("poke/peek")
	}
	var readBack plus.Word
	m.Spawn(5, func(th *plus.Thread) {
		readBack = th.Read(data + 7)
		th.Write(data+8, readBack+1)
		th.Fence()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if readBack != 42 || m.Peek(data+8) != 43 {
		t.Fatalf("readBack=%d data[8]=%d", readBack, m.Peek(data+8))
	}
	if err := m.Kernel().CheckCoherent(); err != nil {
		t.Fatal(err)
	}
}

func TestAllDelayedOpWrappers(t *testing.T) {
	m, err := plus.New(plus.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	page := m.Alloc(1, 1)
	qsz := plus.VAddr(plus.MaxQueueSize)
	tailCtl, headCtl := page+qsz, page+qsz+1
	scratch := m.Alloc(1, 1)

	m.Spawn(0, func(th *plus.Thread) {
		if old := th.XchngSync(scratch, 5); old != 0 {
			t.Errorf("xchng old = %d", old)
		}
		if old := th.Verify(th.CondXchng(scratch, 9)); old != 5 {
			t.Errorf("cond-xchng old = %d", old)
		} // top bit clear: no write
		if old := th.FaddSync(scratch, 3); old != 5 {
			t.Errorf("fadd old = %d", old)
		}
		if old := th.FetchSetSync(scratch); old != 8 {
			t.Errorf("fetch-set old = %d", old)
		}
		// Now the top bit is set, cond-xchng writes.
		if old := th.Verify(th.CondXchng(scratch, 2)); old&plus.TopBit == 0 {
			t.Errorf("cond-xchng old = %#x", old)
		}
		if old := th.MinXchngSync(scratch, 1); old != 2 {
			t.Errorf("min-xchng old = %d", old)
		}
		if got := th.Verify(th.DelayedRead(scratch)); got != 1 {
			t.Errorf("delayed-read = %d", got)
		}
		// Hardware queue round trip.
		if w := th.EnqueueSync(tailCtl, 77); w&plus.TopBit != 0 {
			t.Errorf("enqueue into empty queue full: %#x", w)
		}
		if w := th.DequeueSync(headCtl); w != plus.TopBit|77 {
			t.Errorf("dequeue = %#x", w)
		}
		// Non-blocking result polling.
		h := th.Fadd(scratch, 1)
		for {
			if _, ok := th.TryVerify(h); ok {
				break
			}
			th.Compute(10)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllOpsAndModes(t *testing.T) {
	if len(plus.AllOps()) != 8 {
		t.Fatalf("AllOps = %d entries", len(plus.AllOps()))
	}
	if plus.ModeRunToBlock == plus.ModeSwitchOnSync {
		t.Fatal("modes not distinct")
	}
	tm := plus.DefaultTiming()
	if tm.MaxPendingWrites != 8 || tm.MaxDelayedOps != 8 {
		t.Fatalf("timing = %+v", tm)
	}
	if plus.PageWords != 1024 {
		t.Fatalf("PageWords = %d", plus.PageWords)
	}
}

func TestMachineStatsAccessors(t *testing.T) {
	m, err := plus.New(plus.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(3, 1)
	m.Spawn(0, func(th *plus.Thread) {
		for i := 0; i < 10; i++ {
			th.Read(data)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Nodes[0].RemoteReads != 10 {
		t.Fatalf("remote reads = %d", st.Nodes[0].RemoteReads)
	}
	if st.Messages() == 0 {
		t.Fatal("no network traffic recorded")
	}
	if m.Utilization() <= 0 {
		t.Fatal("utilization not computed")
	}
}

func TestKernelMigrationThroughPublicAPI(t *testing.T) {
	m, err := plus.New(plus.DefaultConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(0, 1)
	m.Poke(data, 11)
	m.Kernel().Migrate(data.Page(), 0, 3)
	if m.Peek(data) != 11 {
		t.Fatal("migration lost data")
	}
	var got plus.Word
	m.Spawn(3, func(th *plus.Thread) {
		got = th.Read(data)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("read after migration = %d", got)
	}
	// The read was local: the page now lives on node 3.
	if m.Stats().Nodes[3].LocalReads != 1 {
		t.Fatal("post-migration read was not local")
	}
}

// TestTraceEndToEnd drives the structured observer through the public
// surface alone: plus.NewObserver attached via Config.Observe.
func TestTraceEndToEnd(t *testing.T) {
	cfg := plus.DefaultConfig(2, 1)
	obs := plus.NewObserver(plus.ObserveConfig{Events: 128})
	cfg.Observe = obs
	m, err := plus.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(1, 1)
	m.Spawn(0, func(th *plus.Thread) {
		th.Write(data, 1)
		th.Fence()
		th.Verify(th.Fadd(data, 2))
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for e := range obs.All() {
		kinds[e.Kind.String()] = true
	}
	for _, want := range []string{"write", "fence", "rmw", "ack"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events; got %v", want, kinds)
		}
	}
	if obs.Dump() == "" {
		t.Error("empty trace dump")
	}
	// Timestamps are nondecreasing.
	ev := slices.Collect(obs.All())
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatal("trace timestamps not monotone")
		}
	}
}

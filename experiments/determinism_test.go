package experiments

import (
	"testing"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/stats"
)

// TestCrossRunDeterminism runs Table 2-1 quick twice in one process
// and requires bit-identical formatted results: the message pool, the
// typed event heap, and every reusable completion hook must carry no
// state from one run into the next.
func TestCrossRunDeterminism(t *testing.T) {
	run := func() string { return goldenRun(t, "table2-1", Options{Quick: true}) }
	first, second := run(), run()
	if first != second {
		t.Fatalf("Table 2-1 quick diverged between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestCrossRunTraceDeterminism runs a small traced machine twice and
// compares the full protocol trace byte for byte: the (time, seq)
// total order of writes, updates, acks, RMWs and reads must be
// reproduced exactly run to run.
func TestCrossRunTraceDeterminism(t *testing.T) {
	run := func() string {
		cfg := core.DefaultConfig(2, 2)
		obs := stats.NewObserver(stats.ObserveConfig{Events: 1 << 16})
		cfg.Observe = obs
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared := m.Alloc(0, 1)
		m.Replicate(shared, 1, 2, 3)
		for n := 0; n < m.Nodes(); n++ {
			n := n
			m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
				slot := shared + memory.VAddr(16+n)
				for i := 0; i < 8; i++ {
					th.FaddSync(shared, 1)
					th.Write(slot, memory.Word(i))
					_ = th.Read(shared)
				}
				th.Fence()
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return obs.Dump()
	}
	first, second := run(), run()
	if first == "" {
		t.Fatal("empty trace")
	}
	if first != second {
		t.Fatal("protocol trace diverged between identical runs")
	}
}

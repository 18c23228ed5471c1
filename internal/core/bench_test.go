package core

import (
	"testing"

	"plus/internal/mesh"
	"plus/internal/proc"
)

// benchSyncLoop runs one thread per node hammering a remote counter
// with delayed fetch-and-adds and verify polls. Spend is dominated by
// the wait path — wake events, the delayed-operation steps they run in
// event context, and the coroutine handoffs that resume each body once
// per operation — so this is the focused regression benchmark for it.
func benchSyncLoop(b *testing.B, mode proc.Mode, switchCost int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(2, 2)
		cfg.Mode = mode
		cfg.SwitchCost = 40
		if mode == proc.RunToBlock {
			cfg.SwitchCost = 0
		}
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctr := m.Alloc(3, 1)
		for n := 0; n < 4; n++ {
			m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
				for k := 0; k < 200; k++ {
					h := th.Fadd(ctr, 1)
					th.Compute(5)
					th.Verify(h)
				}
			})
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if got := m.Peek(ctr); got != 800 {
			b.Fatalf("counter = %d, want 800", got)
		}
	}
}

// BenchmarkSyncVerifyRunToBlock exercises verify waits and remote
// round trips in the paper's run-to-block mode.
func BenchmarkSyncVerifyRunToBlock(b *testing.B) {
	benchSyncLoop(b, proc.RunToBlock, 0)
}

// BenchmarkSyncVerifySwitchOnSync adds the context-switch dispatch to
// every sync issue: a thread that is its processor's only runnable
// work is re-dispatched through a wake event after the switch cost.
func BenchmarkSyncVerifySwitchOnSync(b *testing.B) {
	benchSyncLoop(b, proc.SwitchOnSync, 40)
}

// BenchmarkPrefault times the record store's set-up step: every node
// of a 16x16 machine installs its translation for 512 record pages
// (two per node, homed in blocks) and the counter page, 513 pages in
// all. Machine construction and allocation sit outside the timer; the
// reported ns/page is one page-table install (kernel resolve, page
// table and TLB insert).
func BenchmarkPrefault(b *testing.B) {
	const recordPages = 512
	b.ReportAllocs()
	pages := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewMachine(DefaultConfig(16, 16))
		if err != nil {
			b.Fatal(err)
		}
		nodes := m.Nodes()
		homes := make([]mesh.NodeID, recordPages)
		for p := range homes {
			homes[p] = mesh.NodeID(p / (recordPages / nodes) % nodes)
		}
		records := m.AllocHomed(homes...)
		counters := m.Alloc(mesh.NodeID(nodes-1), 1)
		b.StartTimer()
		for n := 0; n < nodes; n++ {
			m.Prefault(mesh.NodeID(n), records, recordPages)
			m.Prefault(mesh.NodeID(n), counters, 1)
		}
		pages += nodes * (recordPages + 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
}

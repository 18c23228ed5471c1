package core

import (
	"testing"

	"plus/internal/mesh"
	"plus/internal/proc"
)

// benchSyncLoop runs one thread per node hammering a remote counter
// with delayed fetch-and-adds and verify polls. Spend is dominated by
// the wait path — wake events, ParkInline's in-place dispatch, and the
// coroutine handoffs it cannot avoid — so this is the focused
// regression benchmark for it.
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

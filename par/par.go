// Package par is the parallel-programming runtime layer over the PLUS
// machine: the kind of "software environment" the paper defers to its
// companion report ([4] Bisiani et al.) — structured parallelism built
// on the hardware primitives so applications need not touch queues and
// counters directly.
//
// It provides:
//
//   - For: a parallel loop over [0, n) with block scheduling across a
//     set of processors and a barrier at the end;
//   - ForDynamic: the same loop with dynamic chunk self-scheduling
//     through a shared fetch-and-add index (the classic fetch-and-add
//     loop of the era, latency-hidden with the eager allocator);
//   - Reduce: a parallel sum via per-node partials and fetch-and-add
//     combination.
//
// Everything is deterministic under the simulator and composes with
// plus/sync and plus/work.
package par

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	psync "plus/sync"
)

// For runs body(i) for every i in [0, n), block-partitioned over the
// given processors, with an implicit fence+barrier at the end of each
// processor's block — the static-schedule parallel loop.
//
// It must be called from the setup phase (before Machine.Run): it
// spawns one thread per processor and returns immediately; the loop
// executes when the machine runs.
func For(m *core.Machine, procs []mesh.NodeID, n int, body func(t *proc.Thread, i int)) {
	if len(procs) == 0 || n < 0 {
		panic("par: For needs processors and a non-negative bound")
	}
	barrier := psync.NewBarrier(m, procs[0], len(procs))
	for pi, node := range procs {
		pi := pi
		m.SpawnNamed(node, fmt.Sprintf("par.for%d", pi), func(t *proc.Thread) {
			lo := pi * n / len(procs)
			hi := (pi + 1) * n / len(procs)
			for i := lo; i < hi; i++ {
				body(t, i)
			}
			t.Fence()
			barrier.Wait(t)
		})
	}
}

// ForDynamic runs body(i) for every i in [0, n) with dynamic
// self-scheduling in chunks of the given size: workers draw chunk
// start indices from a shared fetch-and-add counter (latency-hidden by
// the eager allocator of §3.3), so irregular iteration costs balance
// automatically.
func ForDynamic(m *core.Machine, procs []mesh.NodeID, n, chunk int, body func(t *proc.Thread, i int)) {
	if len(procs) == 0 || n < 0 {
		panic("par: ForDynamic needs processors and a non-negative bound")
	}
	if chunk < 1 {
		chunk = 1
	}
	idx := psync.NewEagerIndex(m, procs[0])
	barrier := psync.NewBarrier(m, procs[0], len(procs))
	for pi, node := range procs {
		pi := pi
		m.SpawnNamed(node, fmt.Sprintf("par.dyn%d", pi), func(t *proc.Thread) {
			s := idx.Session()
			for {
				c := int(s.Next(t))
				lo := c * chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(t, i)
				}
			}
			s.Close(t)
			t.Fence()
			barrier.Wait(t)
		})
	}
}

// Reduce computes the sum of value(i) over [0, n) in parallel: each
// processor accumulates a local partial in a register, then combines
// it into a shared cell with one fetch-and-add. The final sum is at
// the returned address after the machine runs.
func Reduce(m *core.Machine, procs []mesh.NodeID, n int, value func(t *proc.Thread, i int) int32) memory.VAddr {
	if len(procs) == 0 || n < 0 {
		panic("par: Reduce needs processors and a non-negative bound")
	}
	acc := m.Alloc(procs[0], 1)
	for pi, node := range procs {
		pi := pi
		m.SpawnNamed(node, fmt.Sprintf("par.red%d", pi), func(t *proc.Thread) {
			lo := pi * n / len(procs)
			hi := (pi + 1) * n / len(procs)
			var partial int32
			for i := lo; i < hi; i++ {
				partial += value(t, i)
			}
			t.Verify(t.Fadd(acc, partial))
		})
	}
	return acc
}

// Nodes returns the first p node IDs — the common "use processors
// 0..p-1" helper.
func Nodes(p int) []mesh.NodeID {
	out := make([]mesh.NodeID, p)
	for i := range out {
		out[i] = mesh.NodeID(i)
	}
	return out
}

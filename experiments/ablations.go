package experiments

import (
	"fmt"

	"plus/apps/synth"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/proc"
)

// The ablation sweeps measure the design decisions DESIGN.md calls
// out. Two of them (pending-write depth, delayed-op depth) are pure
// microbenchmarks — bursts against one remote node, where the
// outstanding-operation limit is the binding constraint — because the
// full workloads never push past the hardware's 8 and would show a
// flat line.

// fencePoints compares PLUS's explicit-fence discipline with
// DASH-style implicit fences at every synchronization (§2.1) on a
// write-burst-then-sync pattern, where the implicit fence must drain
// the pending-writes cache before every RMW.
func fencePoints(o Options) []Point[AblationRow] {
	ops := 1200
	if o.Quick {
		ops = 300
	}
	var pts []Point[AblationRow]
	for _, fence := range []bool{false, true} {
		fence := fence
		label := "explicit fence (PLUS)"
		if fence {
			label = "fence at every sync (DASH)"
		}
		name := "ablation fence " + label
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Tags: map[string]string{"config": label},
			Run: func() (AblationRow, error) {
				mc := o.Observe.MachineFor(name, 4, 2)
				mc.FenceOnSync = fence
				res, err := synth.Run(synth.Config{
					MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: ops,
					WriteFrac: 60, RMWFrac: 20, LocalFrac: 10, ThinkTime: 5,
					Seed: 17, Machine: mc,
				})
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label: label, Elapsed: res.Elapsed, Messages: res.Messages,
					Extra: fmt.Sprintf("fence stall %d", res.Totals.FenceStall),
				}, nil
			},
		})
	}
	return pts
}

// AblationFence runs the fence-discipline comparison.
func AblationFence(o Options) ([]AblationRow, error) {
	return RunPoints(fencePoints(o), o.Workers)
}

// invalidatePoints compares PLUS's write-update protocol against a
// word-granular write-invalidate alternative (§2.2) on a
// producer/reader pattern: every processor writes its own pages, which
// are replicated on every other processor and read remotely-owned
// most of the time — under invalidation each such read of a freshly
// written word misses and refetches from the master.
func invalidatePoints(o Options) []Point[AblationRow] {
	ops := 1000
	if o.Quick {
		ops = 300
	}
	var pts []Point[AblationRow]
	for _, inval := range []bool{false, true} {
		inval := inval
		label := "write-update (PLUS)"
		if inval {
			label = "write-invalidate"
		}
		name := "ablation invalidate " + label
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Tags: map[string]string{"config": label},
			Run: func() (AblationRow, error) {
				mc := o.Observe.MachineFor(name, 4, 2)
				mc.InvalidateMode = inval
				res, err := synth.Run(synth.Config{
					MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: ops,
					WriteFrac: 30, RMWFrac: 2, LocalFrac: 10, Copies: 8,
					PagesPerProc: 1, ThinkTime: 10,
					Seed: 37, Machine: mc,
				})
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label: label, Elapsed: res.Elapsed, Messages: res.Messages,
					Extra: fmt.Sprintf("remote reads %d, invalidations %d",
						res.Totals.RemoteReads, res.Totals.Invalidations),
				}, nil
			},
		})
	}
	return pts
}

// AblationInvalidate runs the write-update vs write-invalidate
// comparison.
func AblationInvalidate(o Options) ([]AblationRow, error) {
	return RunPoints(invalidatePoints(o), o.Workers)
}

// burstMachine builds a 2-node machine with a timing override hook.
func burstMachine(mod func(*core.Config)) (*core.Machine, memory.VAddr, error) {
	cfg := core.DefaultConfig(2, 1)
	if mod != nil {
		mod(&cfg)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, 0, err
	}
	data := m.Alloc(1, 1) // everything remote from node 0
	return m, data, nil
}

// pendingWritesPoints sweeps the pending-writes cache depth (the
// hardware chose 8) against bursts of remote writes: with depth d, a
// burst of 16 writes stalls the processor 16-d times per burst.
func pendingWritesPoints(o Options) []Point[AblationRow] {
	bursts := 200
	if o.Quick {
		bursts = 50
	}
	var pts []Point[AblationRow]
	for _, depth := range []int{1, 2, 4, 8, 16} {
		depth := depth
		name := fmt.Sprintf("ablation pending-writes depth=%d", depth)
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Tags: map[string]string{"depth": fmt.Sprint(depth)},
			Run: func() (AblationRow, error) {
				m, data, err := burstMachine(func(c *core.Config) {
					c.Timing.MaxPendingWrites = depth
					o.Observe.Attach(c, name)
				})
				if err != nil {
					return AblationRow{}, err
				}
				m.Spawn(0, func(t *proc.Thread) {
					for b := 0; b < bursts; b++ {
						for i := 0; i < 16; i++ {
							t.Write(data+memory.VAddr(i), memory.Word(uint32(b)))
						}
						t.Fence()
						t.Compute(100)
					}
				})
				elapsed, err := m.Run()
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label:   fmt.Sprintf("pending-writes depth %d", depth),
					Elapsed: elapsed, Messages: m.Stats().Messages(),
					Extra: fmt.Sprintf("write stall %d", m.Stats().Totals().WriteStall),
				}, nil
			},
		})
	}
	return pts
}

// AblationPendingWrites runs the pending-writes depth sweep.
func AblationPendingWrites(o Options) ([]AblationRow, error) {
	return RunPoints(pendingWritesPoints(o), o.Workers)
}

// delayedSlotsPoints sweeps the delayed-operations cache depth (the
// hardware chose 8) against bursts of 8 split-transaction reads: with
// d slots, issue of the (d+1)th operation blocks until a result is
// consumed, serializing the burst into ceil(8/d) round trips.
func delayedSlotsPoints(o Options) []Point[AblationRow] {
	bursts := 200
	if o.Quick {
		bursts = 50
	}
	var pts []Point[AblationRow]
	for _, depth := range []int{1, 2, 4, 8, 16} {
		depth := depth
		name := fmt.Sprintf("ablation delayed-slots depth=%d", depth)
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Tags: map[string]string{"depth": fmt.Sprint(depth)},
			Run: func() (AblationRow, error) {
				m, data, err := burstMachine(func(c *core.Config) {
					c.Timing.MaxDelayedOps = depth
					o.Observe.Attach(c, name)
				})
				if err != nil {
					return AblationRow{}, err
				}
				// A correct program never exceeds the hardware depth (the 9th
				// issue would wait on its own unverified results forever), so
				// the burst pipelines through a window of min(depth, 8).
				win := depth
				if win > 8 {
					win = 8
				}
				m.Spawn(0, func(t *proc.Thread) {
					var q []proc.Handle
					for b := 0; b < bursts; b++ {
						for i := 0; i < 8; i++ {
							if len(q) == win {
								t.Verify(q[0])
								q = q[1:]
							}
							q = append(q, t.DelayedRead(data+memory.VAddr(i)))
						}
						for _, h := range q {
							t.Verify(h)
						}
						q = q[:0]
						t.Compute(100)
					}
				})
				elapsed, err := m.Run()
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label:   fmt.Sprintf("delayed-op slots %d", depth),
					Elapsed: elapsed, Messages: m.Stats().Messages(),
					Extra: fmt.Sprintf("write stall %d, verify stall %d",
						m.Stats().Totals().WriteStall, m.Stats().Totals().VerifyStall),
				}, nil
			},
		})
	}
	return pts
}

// AblationDelayedSlots runs the delayed-operation depth sweep.
func AblationDelayedSlots(o Options) ([]AblationRow, error) {
	return RunPoints(delayedSlotsPoints(o), o.Workers)
}

// contentionPoints compares the idealized (uncontended) network the
// paper measured on with the link-contention model, under a hotspot
// load that funnels most traffic into one node.
func contentionPoints(o Options) []Point[AblationRow] {
	ops := 1000
	if o.Quick {
		ops = 300
	}
	var pts []Point[AblationRow]
	for _, cont := range []bool{false, true} {
		cont := cont
		label := "ideal links"
		if cont {
			label = "contended links"
		}
		name := "ablation contention " + label
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Tags: map[string]string{"config": label},
			Run: func() (AblationRow, error) {
				mc := o.Observe.MachineFor(name, 4, 2)
				mc.NetContention = cont
				res, err := synth.Run(synth.Config{
					MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: ops,
					LocalFrac: 1, HotspotFrac: 90, WriteFrac: 50, ThinkTime: 5,
					Seed: 29, Machine: mc,
				})
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label: label, Elapsed: res.Elapsed, Messages: res.Messages,
					Extra: fmt.Sprintf("queue wait %d", res.QueueWait),
				}, nil
			},
		})
	}
	return pts
}

// AblationContention runs the link-contention comparison.
func AblationContention(o Options) ([]AblationRow, error) {
	return RunPoints(contentionPoints(o), o.Workers)
}

// competitivePoints compares static placement against the competitive
// replication policy of §2.4 on a read-heavy load with poor initial
// placement. The high-threshold rows show the policy arriving too
// late to pay off.
func competitivePoints(o Options) []Point[AblationRow] {
	ops := 1200
	if o.Quick {
		ops = 400
	}
	var pts []Point[AblationRow]
	for _, thr := range []uint64{0, 16, 64, 256} {
		thr := thr
		label := "static placement"
		if thr > 0 {
			label = fmt.Sprintf("competitive thr=%d", thr)
		}
		name := "ablation competitive " + label
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Tags: map[string]string{"config": label},
			Run: func() (AblationRow, error) {
				mc := o.Observe.MachineFor(name, 4, 2)
				mc.CompetitiveThreshold = thr
				res, err := synth.Run(synth.Config{
					MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: ops,
					WriteFrac: 5, RMWFrac: 1, LocalFrac: 10, Seed: 31,
					Machine: mc,
				})
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label: label, Elapsed: res.Elapsed, Messages: res.Messages,
					Extra: fmt.Sprintf("remote reads %d", res.Totals.RemoteReads),
				}, nil
			},
		})
	}
	return pts
}

// AblationCompetitive runs the competitive-replication threshold
// sweep.
func AblationCompetitive(o Options) ([]AblationRow, error) {
	return RunPoints(competitivePoints(o), o.Workers)
}

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

// synthVariant is one point of a synth ablation: the point's name (also
// its trace run name), its row label, and the one machine-config
// change it makes (nil keeps the default PLUS machine).
type synthVariant struct {
	name, label string
	set         func(*core.Config)
}

// synthSweep is an ablation over the synthetic load: every variant runs
// the same load on a 4x2 machine, differing only in its config change.
type synthSweep struct {
	quickOps, fullOps int
	load              synth.Config
	notes             func(synth.Result) string
	variants          []synthVariant
}

// points builds the sweep's points in variant order.
func (s synthSweep) points(o Options) []Point[AblationRow] {
	load := s.load
	load.MeshW, load.MeshH, load.Procs = 4, 2, 8
	load.OpsPerProc = s.fullOps
	if o.Quick {
		load.OpsPerProc = s.quickOps
	}
	pts := make([]Point[AblationRow], len(s.variants))
	for i, v := range s.variants {
		pts[i] = Point[AblationRow]{Name: v.name, Run: func() (AblationRow, error) {
			cfg := load
			cfg.Machine = o.machine(v.name, 4, 2)
			if v.set != nil {
				v.set(cfg.Machine)
			}
			res, err := synth.Run(cfg)
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{Label: v.label, Elapsed: res.Elapsed,
				Messages: res.Messages, Extra: s.notes(res)}, nil
		}}
	}
	return pts
}

// fenceSweep compares PLUS's explicit-fence discipline with DASH-style
// implicit fences at every synchronization (§2.1) on a
// write-burst-then-sync pattern, where the implicit fence must drain
// the pending-writes cache before every RMW.
var fenceSweep = synthSweep{
	quickOps: 300, fullOps: 1200,
	load:  synth.Config{WriteFrac: 60, RMWFrac: 20, LocalFrac: 10, ThinkTime: 5, Seed: 17},
	notes: func(r synth.Result) string { return fmt.Sprintf("fence stall %d", r.Totals.FenceStall) },
	variants: []synthVariant{
		{"ablation fence explicit fence (PLUS)", "explicit fence (PLUS)", nil},
		{"ablation fence fence at every sync (DASH)", "fence at every sync (DASH)",
			func(c *core.Config) { c.FenceOnSync = true }},
	},
}

// invalidateSweep compares PLUS's write-update protocol against a
// word-granular write-invalidate alternative (§2.2) on a
// producer/reader pattern: every processor writes its own pages, which
// are replicated on every other processor and read remotely-owned
// most of the time — under invalidation each such read of a freshly
// written word misses and refetches from the master.
var invalidateSweep = synthSweep{
	quickOps: 300, fullOps: 1000,
	load: synth.Config{WriteFrac: 30, RMWFrac: 2, LocalFrac: 10, Copies: 8,
		PagesPerProc: 1, ThinkTime: 10, Seed: 37},
	notes: func(r synth.Result) string {
		return fmt.Sprintf("remote reads %d, invalidations %d", r.Totals.RemoteReads, r.Totals.Invalidations)
	},
	variants: []synthVariant{
		{"ablation invalidate write-update (PLUS)", "write-update (PLUS)", nil},
		{"ablation invalidate write-invalidate", "write-invalidate",
			func(c *core.Config) { c.InvalidateMode = true }},
	},
}

// contentionSweep compares the idealized (uncontended) network the
// paper measured on with the link-contention model, under a hotspot
// load that funnels most traffic into one node.
var contentionSweep = synthSweep{
	quickOps: 300, fullOps: 1000,
	load:  synth.Config{LocalFrac: 1, HotspotFrac: 90, WriteFrac: 50, ThinkTime: 5, Seed: 29},
	notes: func(r synth.Result) string { return fmt.Sprintf("queue wait %d", r.QueueWait) },
	variants: []synthVariant{
		{"ablation contention ideal links", "ideal links", nil},
		{"ablation contention contended links", "contended links",
			func(c *core.Config) { c.NetContention = true }},
	},
}

// competitiveSweep compares static placement against the competitive
// replication policy of §2.4 on a read-heavy load with poor initial
// placement. The high-threshold rows show the policy arriving too
// late to pay off.
var competitiveSweep = synthSweep{
	quickOps: 400, fullOps: 1200,
	load:  synth.Config{WriteFrac: 5, RMWFrac: 1, LocalFrac: 10, Seed: 31},
	notes: func(r synth.Result) string { return fmt.Sprintf("remote reads %d", r.Totals.RemoteReads) },
	variants: []synthVariant{
		{"ablation competitive static placement", "static placement", nil},
		competitiveVariant(16), competitiveVariant(64), competitiveVariant(256),
	},
}

func competitiveVariant(thr uint64) synthVariant {
	label := fmt.Sprintf("competitive thr=%d", thr)
	return synthVariant{"ablation competitive " + label, label,
		func(c *core.Config) { c.CompetitiveThreshold = thr }}
}

// batchingSweep sweeps the write-combining depth
// (Timing.MaxBatchWrites, 1 = combining off) on a write-heavy
// mostly-local load, where runs of consecutive same-page writes are
// common and each coalesced word saves a write request, an update per
// copy, and an ack. The interesting outputs are the update-message
// count falling with depth and the coalesced-word counter rising, at
// identical final memory contents (pinned by the core-level
// equivalence fuzzer).
var batchingSweep = synthSweep{
	quickOps: 400, fullOps: 1500,
	load: synth.Config{WriteFrac: 85, RMWFrac: 2, LocalFrac: 80,
		PagesPerProc: 1, Copies: 4, ThinkTime: 5, FencePeriod: 64, Seed: 41},
	notes: func(r synth.Result) string {
		return fmt.Sprintf("updates %d, coalesced %d", r.Updates, r.Totals.CoalescedWrites)
	},
	variants: []synthVariant{
		{"ablation batching depth=1", "combining off", nil},
		batchingVariant(2), batchingVariant(4), batchingVariant(8), batchingVariant(16),
	},
}

func batchingVariant(depth int) synthVariant {
	return synthVariant{fmt.Sprintf("ablation batching depth=%d", depth),
		fmt.Sprintf("combine depth %d", depth),
		func(c *core.Config) { c.Timing.MaxBatchWrites = depth }}
}

// burstMachine builds the named point's 2-node machine with a timing
// override hook.
func burstMachine(o Options, name string, mod func(*core.Config)) (*core.Machine, memory.VAddr, error) {
	cfg := o.machine(name, 2, 1)
	mod(cfg)
	m, err := core.NewMachine(*cfg)
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
		name := fmt.Sprintf("ablation pending-writes depth=%d", depth)
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Run: func() (AblationRow, error) {
				m, data, err := burstMachine(o, name, func(c *core.Config) {
					c.Timing.MaxPendingWrites = depth
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
		name := fmt.Sprintf("ablation delayed-slots depth=%d", depth)
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Run: func() (AblationRow, error) {
				m, data, err := burstMachine(o, name, func(c *core.Config) {
					c.Timing.MaxDelayedOps = depth
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

// Package synth generates synthetic shared-memory loads — the paper
// mentions "some experiments with synthetic loads as reported in [2]"
// as part of the evaluation. Each processor performs a configurable
// mix of reads, writes and delayed operations over a data set with
// tunable locality and an optional hotspot page, reporting latency and
// traffic. The ablation benches use it to sweep protocol parameters
// (outstanding-write depth, contention, fence policy, competitive
// replication) against a neutral access pattern.
package synth

import (
	"fmt"
	"math/rand"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
)

// Config parameterizes a synthetic run.
type Config struct {
	MeshW, MeshH int
	Procs        int
	// OpsPerProc references per processor (default 500).
	OpsPerProc int
	// WriteFrac in [0,100]: percentage of references that are writes
	// (default 30). RMWFrac of references that are fetch-and-adds
	// (default 5); the remainder are reads.
	WriteFrac, RMWFrac int
	// LocalFrac in [0,100]: percentage of references touching the
	// processor's own pages (default 70); the rest go to uniformly
	// random other processors' pages, or to the hotspot when
	// HotspotFrac of the remote share is directed there.
	LocalFrac   int
	HotspotFrac int
	// PagesPerProc sizes each processor's data (default 2).
	PagesPerProc int
	// Copies replicates every data page at this level (1 = none).
	Copies int
	// ThinkTime cycles between references (default 30).
	ThinkTime   sim.Cycles
	Seed        int64
	FencePeriod int // fence every N ops (0 = only at end)
	// Machine, when non-nil, overrides the machine configuration
	// (mesh geometry fields are still taken from MeshW/MeshH); the
	// ablation benches set the knob under test on it.
	Machine *core.Config
}

func (c Config) withDefaults() Config {
	if c.MeshW == 0 {
		c.MeshW = 4
	}
	if c.MeshH == 0 {
		c.MeshH = 2
	}
	if c.Procs == 0 {
		c.Procs = c.MeshW * c.MeshH
	}
	if c.OpsPerProc == 0 {
		c.OpsPerProc = 500
	}
	if c.WriteFrac == 0 {
		c.WriteFrac = 30
	}
	if c.RMWFrac == 0 {
		c.RMWFrac = 5
	}
	if c.LocalFrac == 0 {
		c.LocalFrac = 70
	}
	if c.PagesPerProc == 0 {
		c.PagesPerProc = 2
	}
	if c.Copies == 0 {
		c.Copies = 1
	}
	if c.ThinkTime == 0 {
		c.ThinkTime = 30
	}
	return c
}

// Result reports a synthetic run.
type Result struct {
	Elapsed     sim.Cycles
	Utilization float64
	Throughput  float64 // references per cycle, machine-wide
	Totals      stats.Node
	Messages    uint64
	Updates     uint64
	QueueWait   sim.Cycles // network contention queuing
	// Report is the rendered per-node counter table.
	Report string
}

// Run executes the load.//
// Run is safe for concurrent use by the experiments sweep runner:
// every call builds a private machine (its own sim.Engine, mesh,
// stats and locally seeded RNGs) and shares no mutable state with
// other calls, so one fresh engine may run per worker goroutine.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var mcfg core.Config
	if cfg.Machine != nil {
		mcfg = *cfg.Machine
		mcfg.MeshWidth, mcfg.MeshHeight = cfg.MeshW, cfg.MeshH
	} else {
		mcfg = core.DefaultConfig(cfg.MeshW, cfg.MeshH)
	}
	m, err := core.NewMachine(mcfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.Procs > m.Nodes() {
		return Result{}, fmt.Errorf("synth: %d procs on %d nodes", cfg.Procs, m.Nodes())
	}

	// Per-proc page ranges plus one hotspot page on node 0.
	bases := make([]memory.VAddr, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		bases[p] = m.Alloc(mesh.NodeID(p), cfg.PagesPerProc)
	}
	hotspot := m.Alloc(0, 1)
	if cfg.Copies > 1 {
		for p := 0; p < cfg.Procs; p++ {
			for k := 1; k < cfg.Copies && k < cfg.Procs; k++ {
				m.ReplicateRange(bases[p], cfg.PagesPerProc, mesh.NodeID((p+k)%cfg.Procs))
			}
		}
	}

	for p := 0; p < cfg.Procs; p++ {
		p := p
		rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*7919))
		m.SpawnNamed(mesh.NodeID(p), fmt.Sprintf("synth%d", p), func(t *proc.Thread) {
			for i := 0; i < cfg.OpsPerProc; i++ {
				t.Compute(cfg.ThinkTime)
				var va memory.VAddr
				switch {
				case rng.Intn(100) < cfg.LocalFrac:
					va = bases[p] + memory.VAddr(rng.Intn(cfg.PagesPerProc*memory.PageWords))
				case rng.Intn(100) < cfg.HotspotFrac:
					va = hotspot + memory.VAddr(rng.Intn(64))
				default:
					q := rng.Intn(cfg.Procs)
					va = bases[q] + memory.VAddr(rng.Intn(cfg.PagesPerProc*memory.PageWords))
				}
				r := rng.Intn(100)
				switch {
				case r < cfg.RMWFrac:
					t.FaddSync(va, 1)
				case r < cfg.RMWFrac+cfg.WriteFrac:
					t.Write(va, memory.Word(uint32(i)))
				default:
					t.Read(va)
				}
				if cfg.FencePeriod > 0 && (i+1)%cfg.FencePeriod == 0 {
					t.Fence()
				}
			}
			t.Fence() // drain before exiting
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	totalOps := float64(cfg.OpsPerProc * cfg.Procs)
	res := Result{
		Elapsed:     elapsed,
		Utilization: m.Utilization(),
		Totals:      m.Stats().Totals(),
		Messages:    m.Stats().Messages(),
		Updates:     m.Stats().MsgUpdate,
		QueueWait:   m.Mesh().Stats().QueueWait,
		Report:      m.Stats().Report(elapsed),
	}
	if elapsed > 0 {
		res.Throughput = totalOps / float64(elapsed)
	}
	return res, nil
}

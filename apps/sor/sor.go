// Package sor implements red-black successive over-relaxation on a
// shared 2-D grid — the canonical regular, barrier-synchronized
// shared-memory workload of the period, included as a contrast to the
// paper's irregular, queue-driven applications: it shows the PLUS
// memory system scaling when synchronization is coarse (one barrier
// per half-sweep) and communication is only at strip boundaries,
// where page replication turns the neighbour-row reads local.
//
// The stencil is integer (deterministic): interior cell ← mean of its
// four neighbours; boundary cells are fixed. Red-black ordering with
// a barrier between colours makes the parallel result bit-identical
// to the sequential reference regardless of interleaving.
package sor

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	psync "plus/sync"
)

// Config parameterizes a run.
type Config struct {
	MeshW, MeshH int
	Procs        int
	// N is the grid side (default 64); Iters the number of full
	// red+black sweeps (default 4). Note the 4 KB page granularity:
	// one grid row of N words shares its page with 1024/N neighbours,
	// so strips smaller than a page suffer page-level false sharing
	// (remote masters for locally owned rows) — real DSM behaviour.
	// N >= 64 gives each of up to N*N/1024 processors whole pages.
	N, Iters int
	// ReplicateBoundaries places each strip's pages on the strip's
	// neighbours, turning halo reads local (the PLUS way to run this
	// workload). Without it, halo reads are remote.
	ReplicateBoundaries bool
	Validate            bool
	// Machine, when non-nil, overrides the machine configuration
	// (mesh geometry fields are still taken from MeshW/MeshH); used by
	// the observation and race-detection runners to attach observers
	// and sweep shard counts.
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
	if c.N == 0 {
		c.N = 64
	}
	if c.Iters == 0 {
		c.Iters = 4
	}
	return c
}

// Result reports a run.
type Result struct {
	Elapsed     sim.Cycles
	Utilization float64
	Updates     uint64 // stencil updates performed
	Grid        []uint32
	// Report is the rendered per-node counter table.
	Report string
}

// Reference computes the sequential red-black schedule.
func Reference(cfg Config) []uint32 {
	cfg = cfg.withDefaults()
	g := seedGrid(cfg.N)
	for it := 0; it < cfg.Iters; it++ {
		for color := 0; color < 2; color++ {
			for r := 1; r < cfg.N-1; r++ {
				for c := 1; c < cfg.N-1; c++ {
					if (r+c)%2 != color {
						continue
					}
					g[r*cfg.N+c] = (g[(r-1)*cfg.N+c] + g[(r+1)*cfg.N+c] +
						g[r*cfg.N+c-1] + g[r*cfg.N+c+1]) / 4
				}
			}
		}
	}
	return g
}

// seedGrid builds the deterministic initial condition: hot top edge,
// cold elsewhere, with a varied left edge.
func seedGrid(n int) []uint32 {
	g := make([]uint32, n*n)
	for r := 0; r < n; r++ {
		g[r*n] = uint32(100 * r) // left boundary
	}
	for c := 0; c < n; c++ {
		g[c] = 10000 // top boundary (wins the corner)
	}
	return g
}

// cellWork is the computation charged per stencil update: a few adds
// and a shift.
const cellWork sim.Cycles = 12

// Run executes the workload.
//
// Run is safe for concurrent use by the experiments sweep runner:
// every call builds a private machine (its own sim.Engine, mesh,
// stats and locally seeded RNGs) and shares no mutable state with
// other calls, so one fresh engine may run per worker goroutine.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	mcfg := core.DefaultConfig(cfg.MeshW, cfg.MeshH)
	if cfg.Machine != nil {
		mcfg = *cfg.Machine
		mcfg.MeshWidth, mcfg.MeshHeight = cfg.MeshW, cfg.MeshH
	}
	m, err := core.NewMachine(mcfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.Procs > m.Nodes() {
		return Result{}, fmt.Errorf("sor: %d procs on %d nodes", cfg.Procs, m.Nodes())
	}
	if cfg.N < 4 || cfg.Procs > cfg.N-2 {
		return Result{}, fmt.Errorf("sor: grid %d too small for %d procs", cfg.N, cfg.Procs)
	}

	// Row r owned by the processor whose strip contains it.
	ownerOfRow := func(r int) int {
		o := r * cfg.Procs / cfg.N
		if o >= cfg.Procs {
			o = cfg.Procs - 1
		}
		return o
	}
	words := cfg.N * cfg.N
	pages := (words + memory.PageWords - 1) / memory.PageWords
	homes := make([]mesh.NodeID, pages)
	for i := range homes {
		homes[i] = mesh.NodeID(ownerOfRow(i * memory.PageWords / cfg.N))
	}
	grid := m.AllocHomed(homes...)
	if cfg.ReplicateBoundaries {
		// Copy each grid page onto the strips adjacent to its home, so
		// halo rows are read locally everywhere.
		for i := range homes {
			va := grid + memory.VAddr(i*memory.PageWords)
			h := int(homes[i])
			if h > 0 {
				m.Replicate(va, mesh.NodeID(h-1))
			}
			if h+1 < cfg.Procs {
				m.Replicate(va, mesh.NodeID(h+1))
			}
		}
	}
	init := seedGrid(cfg.N)
	for i, v := range init {
		m.Poke(grid+memory.VAddr(i), memory.Word(v))
	}

	barrier := psync.NewBarrier(m, 0, cfg.Procs)
	if cfg.ReplicateBoundaries {
		for p := 1; p < cfg.Procs; p++ {
			m.Replicate(barrier.GenAddr(), mesh.NodeID(p))
		}
	}

	// One counter per strip: sharded machines run threads on parallel
	// goroutines, so a single shared Go-level counter would race.
	updatesBy := make([]uint64, cfg.Procs)
	cell := func(r, c int) memory.VAddr { return grid + memory.VAddr(r*cfg.N+c) }
	for p := 0; p < cfg.Procs; p++ {
		p := p
		lo, hi := p*cfg.N/cfg.Procs, (p+1)*cfg.N/cfg.Procs
		if lo == 0 {
			lo = 1
		}
		if hi > cfg.N-1 {
			hi = cfg.N - 1
		}
		m.SpawnNamed(mesh.NodeID(p), fmt.Sprintf("sor%d", p), func(t *proc.Thread) {
			for it := 0; it < cfg.Iters; it++ {
				for color := 0; color < 2; color++ {
					for r := lo; r < hi; r++ {
						for c := 1; c < cfg.N-1; c++ {
							if (r+c)%2 != color {
								continue
							}
							sum := uint32(t.Read(cell(r-1, c))) +
								uint32(t.Read(cell(r+1, c))) +
								uint32(t.Read(cell(r, c-1))) +
								uint32(t.Read(cell(r, c+1)))
							t.Compute(cellWork)
							t.Write(cell(r, c), memory.Word(sum/4))
							updatesBy[p]++
						}
					}
					// Publish this colour's writes everywhere, then
					// meet the others before the dependent colour.
					t.Fence()
					barrier.Wait(t)
				}
			}
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	var updates uint64
	for _, u := range updatesBy {
		updates += u
	}
	res := Result{
		Elapsed:     elapsed,
		Utilization: m.Utilization(),
		Updates:     updates,
		Grid:        make([]uint32, words),
		Report:      m.Stats().Report(elapsed),
	}
	for i := range res.Grid {
		res.Grid[i] = uint32(m.Peek(grid + memory.VAddr(i)))
	}
	if cfg.Validate {
		want := Reference(cfg)
		for i := range want {
			if res.Grid[i] != want[i] {
				return res, fmt.Errorf("sor: cell %d = %d, reference says %d", i, res.Grid[i], want[i])
			}
		}
	}
	return res, nil
}

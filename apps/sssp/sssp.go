// Package sssp implements the Single Point Shortest Path workload of
// §2.5: the evaluation application behind Table 2-1 (effect of
// replication on message traffic) and Figure 2-1 (efficiency and
// utilization versus processors, with and without replication).
//
// The parallel algorithm follows the paper: vertices are evenly
// distributed among the nodes with one hardware work queue per node;
// distance updates use min-xchng (the operation "very convenient for
// this application"); a processor whose queue runs dry extracts work
// from other queues for load balance; queues and vertex data are
// replicated at a configurable level.
package sssp

import (
	"fmt"
	"slices"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/work"
)

// Config parameterizes a run.
type Config struct {
	// MeshW, MeshH give the machine geometry; Procs participate
	// (Procs <= MeshW*MeshH). Zero values default to a 4x4 mesh with
	// all 16 processors.
	MeshW, MeshH int
	Procs        int
	// Vertices and Degree shape the random graph (defaults 512 / 4).
	Vertices int
	Degree   int
	// MaxWeight bounds edge weights (default 16).
	MaxWeight uint32
	// Seed makes the graph deterministic.
	Seed int64
	// Copies is the replication level for queues and vertex data:
	// 1 = master copy only (no replication), k = copies on the k-1
	// participating nodes nearest each page's home. This is the
	// "Number of Copies" column of Table 2-1.
	Copies int
	// Validate checks the parallel result against sequential Dijkstra.
	Validate bool
	// Machine, when non-nil, overrides the machine configuration
	// (mesh geometry fields are still taken from MeshW/MeshH); used by
	// the ablation benches to sweep hardware parameters.
	Machine *core.Config
}

func (c Config) withDefaults() Config {
	if c.MeshW == 0 {
		c.MeshW = 4
	}
	if c.MeshH == 0 {
		c.MeshH = 4
	}
	if c.Procs == 0 {
		c.Procs = c.MeshW * c.MeshH
	}
	if c.Vertices == 0 {
		c.Vertices = 512
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 16
	}
	if c.Copies == 0 {
		c.Copies = 1
	}
	return c
}

// Result reports a run's timing and the Table 2-1 instrumentation.
type Result struct {
	Elapsed     sim.Cycles
	Utilization float64
	// ReadRatio, WriteRatio and UpdateRatio are the three ratio
	// columns of Table 2-1: local/remote reads, local/remote writes,
	// total messages / update messages.
	ReadRatio, WriteRatio, UpdateRatio float64
	Messages, Updates                  uint64
	Totals                             stats.Node
	// Net is the interconnect's counters, including the fault-injection
	// tallies in unreliable-network mode.
	Net mesh.Stats
	// Retransmits and TransportAcks are the reliability sublayer's
	// activity (zero on a reliable network); Reliability carries the
	// full counter block for experiment JSON rows.
	Retransmits, TransportAcks uint64
	Reliability                stats.Reliability
	Relaxations                uint64
	Dist                       []uint32
	// Report is the rendered per-node counter table.
	Report string
}

// Run executes the workload and returns measurements. The returned
// error covers machine construction, deadlock and — with Validate —
// result mismatches against Dijkstra.
//
// Run is safe for concurrent use by the experiments sweep runner:
// every call builds a private machine (its own sim.Engine, mesh,
// stats and locally seeded RNGs) and shares no mutable state with
// other calls, so one fresh engine may run per worker goroutine.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	g := Generate(cfg.Vertices, cfg.Degree, cfg.MaxWeight, cfg.Seed)

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
		return Result{}, fmt.Errorf("sssp: %d procs on %d nodes", cfg.Procs, m.Nodes())
	}
	w := newWorkspace(m, g, cfg)

	done := make([]bool, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		m.SpawnNamed(mesh.NodeID(p), fmt.Sprintf("sssp%d", p), func(t *proc.Thread) {
			w.worker(t, p)
			done[p] = true
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Elapsed:       elapsed,
		Utilization:   m.Utilization(),
		Report:        m.Stats().Report(elapsed),
		ReadRatio:     m.Stats().ReadRatio(),
		WriteRatio:    m.Stats().WriteRatio(),
		UpdateRatio:   m.Stats().UpdateRatio(),
		Messages:      m.Stats().Messages(),
		Updates:       m.Stats().MsgUpdate,
		Totals:        m.Stats().Totals(),
		Net:           m.Mesh().Stats(),
		Retransmits:   m.Stats().Retransmits,
		TransportAcks: m.Stats().MsgTAck,
		Reliability:   m.Stats().Reliability(),
		Relaxations:   sum(w.relaxations),
		Dist:          w.readDist(),
	}
	if cfg.Validate {
		want := Dijkstra(g, 0)
		for v := range want {
			if res.Dist[v] != want[v] {
				return res, fmt.Errorf("sssp: dist[%d] = %d, Dijkstra says %d", v, res.Dist[v], want[v])
			}
		}
	}
	return res, nil
}

// workspace is the shared-memory layout plus plain-Go bookkeeping.
type workspace struct {
	m   *core.Machine
	g   *Graph
	cfg Config

	blk  int // vertices per owner block
	dist memory.VAddr
	offs memory.VAddr
	tgts memory.VAddr
	wgts memory.VAddr
	pool *work.Pool
	// visible[p] lists the queue owners processor p may extract work
	// from: itself plus the owners whose queues are replicated onto p.
	// With Copies=1 each processor works only its own queue — the
	// unreplicated configuration whose load imbalance Figure 2-1 shows.
	visible [][]int

	// relaxations is counted per worker: each processor's thread bumps
	// only its own slot, so the tally stays race-free when processors
	// run on different shards. Summed for Result.Relaxations.
	relaxations []uint64

	// near caches nearest's answer per home.
	near [][]mesh.NodeID
}

func (w *workspace) owner(v int32) int {
	o := int(v) / w.blk
	if o >= w.cfg.Procs {
		o = w.cfg.Procs - 1
	}
	return o
}

func newWorkspace(m *core.Machine, g *Graph, cfg Config) *workspace {
	w := &workspace{
		m: m, g: g, cfg: cfg,
		blk:         (g.V + cfg.Procs - 1) / cfg.Procs,
		relaxations: make([]uint64, cfg.Procs),
	}

	// Block-homed arrays: page i of dist belongs to the owner of its
	// first vertex; CSR pages are homed by the owner of the source
	// vertex whose data begins the page.
	w.dist = m.AllocHomed(w.pageHomes(g.V, func(word int) int { return w.owner(int32(word)) })...)
	w.offs = m.AllocHomed(w.pageHomes(g.V+1, func(word int) int {
		if word >= g.V {
			word = g.V - 1
		}
		return w.owner(int32(word))
	})...)
	edgeOwner := func(word int) int {
		if word >= len(g.Targets) {
			word = len(g.Targets) - 1
		}
		// Binary search the source vertex of edge `word`.
		lo, hi := 0, g.V-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if int(g.Offsets[mid]) <= word {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return w.owner(int32(lo))
	}
	w.tgts = m.AllocHomed(w.pageHomes(g.Edges(), edgeOwner)...)
	w.wgts = m.AllocHomed(w.pageHomes(g.Edges(), edgeOwner)...)

	// The distributed work queues: one set of hardware queues per
	// participating processor, vertices owned block-wise.
	w.pool = work.New(m, cfg.Procs, g.V, func(v int) int { return w.owner(int32(v)) })
	w.visible = make([][]int, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		w.visible[p] = []int{p}
	}

	// Replication: queues and vertex data on the Copies-1 nearest
	// participating nodes (§2.5: "we have replicated the queues and
	// vertices on more than one processor").
	if cfg.Copies > 1 {
		repl := func(base memory.VAddr, words int) {
			pages := (words + memory.PageWords - 1) / memory.PageWords
			for i := 0; i < pages; i++ {
				va := base + memory.VAddr(i*memory.PageWords)
				home := w.m.Kernel().CopyList(va.Page())[0].Node
				for _, n := range w.nearest(home) {
					m.Replicate(va, n)
				}
			}
		}
		repl(w.dist, g.V)
		repl(w.offs, g.V+1)
		repl(w.tgts, g.Edges())
		repl(w.wgts, g.Edges())
		for p := 0; p < cfg.Procs; p++ {
			for _, qp := range w.pool.QueuePages(p) {
				repl(qp, memory.PageWords)
			}
			// Replicating processor p's queues onto its neighbours
			// shares them: those nodes may now extract p's work.
			for _, n := range w.nearest(mesh.NodeID(p)) {
				w.visible[int(n)] = append(w.visible[int(n)], p)
			}
		}
		for _, fp := range w.pool.FlagPages() {
			repl(fp, memory.PageWords)
		}
	}

	// Initialize shared memory outside simulated time.
	for v := 0; v < g.V; v++ {
		d := Inf
		if v == 0 {
			d = 0
		}
		m.Poke(w.dist+memory.VAddr(v), memory.Word(d))
	}
	for i, o := range g.Offsets {
		m.Poke(w.offs+memory.VAddr(i), memory.Word(uint32(o)))
	}
	for i := range g.Targets {
		m.Poke(w.tgts+memory.VAddr(i), memory.Word(uint32(g.Targets[i])))
		m.Poke(w.wgts+memory.VAddr(i), memory.Word(g.Weights[i]))
	}
	// Seed the computation: the source vertex.
	w.pool.Seed(0)
	return w
}

// pageHomes maps each page of a words-long array to its owner node.
func (w *workspace) pageHomes(words int, ownerOf func(word int) int) []mesh.NodeID {
	pages := (words + memory.PageWords - 1) / memory.PageWords
	homes := make([]mesh.NodeID, pages)
	for i := range homes {
		homes[i] = mesh.NodeID(ownerOf(i * memory.PageWords))
	}
	return homes
}

// nearest returns the Copies-1 participating nodes nearest to home
// (excluding home). Each home's list is computed once per workspace
// and shared by every page it homes.
func (w *workspace) nearest(home mesh.NodeID) []mesh.NodeID {
	if w.near == nil {
		w.near = make([][]mesh.NodeID, w.cfg.Procs)
	}
	if w.near[home] == nil {
		w.near[home] = nearestK(w.cfg.Procs, w.cfg.Copies-1, home, w.m.Mesh().Hops)
	}
	return w.near[home]
}

// nearestK returns the k participating nodes nearest to home
// (excluding home), by hop count, ties by node id.
func nearestK(procs, k int, home mesh.NodeID, hops func(a, b mesh.NodeID) int) []mesh.NodeID {
	out := make([]mesh.NodeID, 0, k)
	for p := range procs {
		n := mesh.NodeID(p)
		if n == home {
			continue
		}
		// Ids ascend, so n goes after every kept node as near as it.
		h, i := hops(home, n), len(out)
		for i > 0 && hops(home, out[i-1]) > h {
			i--
		}
		if i < k {
			out = slices.Insert(out[:min(len(out), k-1)], i, n)
		}
	}
	return out
}

func (w *workspace) distVA(v int32) memory.VAddr { return w.dist + memory.VAddr(v) }

// pipelineDepth bounds concurrently outstanding min-xchng handles,
// leaving delayed-op cache slots free for the fadd/enqueue that
// follows (8 slots per node in the hardware).
const pipelineDepth = 4

// vertexWork and edgeWork are the computation cycles charged per
// processed vertex and per relaxed edge, modeling the instruction
// stream between shared-memory references.
const (
	vertexWork sim.Cycles = 40
	edgeWork   sim.Cycles = 20
)

// process relaxes all edges of v, re-enqueueing improved targets.
func (w *workspace) process(t *proc.Thread, p int, v int32) {
	w.relaxations[p]++
	t.Compute(vertexWork)
	// dist[v] is read at the master via delayed-read: an authoritative
	// value, so a concurrent improvement of dist[v] (which re-enqueues
	// v) can never be lost to replica staleness.
	dv := uint32(t.Verify(t.DelayedRead(w.distVA(v))))
	lo := int32(t.Read(w.offs + memory.VAddr(v)))
	hi := int32(t.Read(w.offs + memory.VAddr(v) + 1))

	var batch [pipelineDepth]rel
	n := 0
	for e := lo; e < hi; e++ {
		tgt := int32(t.Read(w.tgts + memory.VAddr(e)))
		wt := uint32(t.Read(w.wgts + memory.VAddr(e)))
		t.Compute(edgeWork)
		nd := dv + wt
		if nd >= Inf {
			continue
		}
		batch[n] = rel{tgt: tgt, nd: nd, h: t.MinXchng(w.distVA(tgt), memory.Word(nd))}
		n++
		if n == pipelineDepth {
			w.verifyBatch(t, batch[:n])
			n = 0
		}
	}
	w.verifyBatch(t, batch[:n])
	w.pool.Done(t)
}

// rel is one relaxation in flight: its target, the candidate distance
// and the min-xchng's handle.
type rel struct {
	tgt int32
	nd  uint32
	h   proc.Handle
}

// verifyBatch verifies a batch of min-xchngs in issue order and
// re-enqueues every target one improved.
func (w *workspace) verifyBatch(t *proc.Thread, batch []rel) {
	for _, r := range batch {
		old := uint32(t.Verify(r.h))
		if r.nd < old {
			// Improved: the min-xchng is verified (applied at the
			// master), so the pool's flag protocol guarantees the
			// next processing of tgt observes it.
			w.pool.Add(t, int(r.tgt))
		}
	}
}

// worker is one processor's loop: drain the queues it shares (its own
// plus replicated ones), exit when the pool terminates.
func (w *workspace) worker(t *proc.Thread, p int) {
	for {
		v, ok := w.pool.GetScoped(t, p, w.visible[p])
		if !ok {
			return
		}
		w.process(t, p, int32(v))
	}
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

func (w *workspace) readDist() []uint32 {
	out := make([]uint32, w.g.V)
	for v := range out {
		out[v] = uint32(w.m.Peek(w.dist + memory.VAddr(v)))
	}
	return out
}

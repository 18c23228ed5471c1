// Package beam implements the beam-search workload of §3.4: searching
// a layered Hidden-Markov-Model digraph for the best-cost path, the
// application behind Figure 3-1 (efficiency under blocking
// synchronization, delayed operations, and context switching at 16,
// 40 and 140 cycles).
//
// The paper's inner loop — "a processor must dequeue one vertex from
// the list of vertices to be processed, lock all the vertices that
// follow it and finally queue a new vertex... about 70 RISC
// instructions and about 10 memory references per iteration" — is
// reproduced directly: per dequeued vertex the worker locks each
// successor with fetch-and-set, relaxes its score, re-queues it on
// improvement, and unlocks. The three synchronization styles differ
// only in how that loop is coded (issue+verify back to back, software
// pipelined, or run under the processor's switch-on-sync mode),
// exactly as in the paper, where "the programming burden of these
// changes was easily hidden in two macros".
package beam

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/work"
)

// Style selects the Figure 3-1 curve.
type Style int

const (
	// Blocking waits for every synchronization primitive to return a
	// result before proceeding.
	Blocking Style = iota
	// Delayed pipelines synchronization: the next vertex is dequeued in
	// parallel with processing the current one, and successor locks are
	// acquired in parallel.
	Delayed
	// ContextSwitch runs two threads per processor in switch-on-sync
	// mode with Config.SwitchCost per switch.
	ContextSwitch
)

// String names the style for reports and flags.
func (s Style) String() string {
	switch s {
	case Blocking:
		return "blocking"
	case Delayed:
		return "delayed"
	case ContextSwitch:
		return "context-switch"
	default:
		return "style(?)"
	}
}

// Inf is the unreached score (top bit clear).
const Inf uint32 = 0x7fffffff

// Config parameterizes a run.
type Config struct {
	// MeshW, MeshH, Procs as in the other workloads (defaults 4x4/16).
	MeshW, MeshH int
	Procs        int
	// Layers and States shape the HMM lattice (defaults 24 x 64);
	// Branch successors per state (default 3).
	Layers, States, Branch int
	// MaxWeight bounds transition costs (default 8).
	MaxWeight uint32
	// Style selects the synchronization coding style.
	Style Style
	// SwitchCost is the context-switch cost for ContextSwitch style
	// (the paper sweeps 16, 40, 140).
	SwitchCost sim.Cycles
	// ThreadsPerProc for ContextSwitch style (default 2).
	ThreadsPerProc int
	// Beam, when nonzero, enables beam pruning: a vertex whose score
	// exceeds its layer's running best by more than Beam is dropped.
	// The per-layer bests are maintained with min-xchng — §3.2's
	// "keep an approximation of the minimum or maximum value of some
	// variable" — and read from local replicas, so a slightly stale
	// best only weakens pruning, never correctness.
	Beam uint32
	// Validate checks final scores against a sequential DAG relaxation.
	Validate bool
	// Machine, when non-nil, overrides the machine configuration (mesh
	// geometry is still taken from MeshW/MeshH, and Style still selects
	// Mode/SwitchCost); used by the experiments to attach observers and
	// sweep hardware parameters.
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
	if c.Layers == 0 {
		c.Layers = 24
	}
	if c.States == 0 {
		c.States = 64
	}
	if c.Branch == 0 {
		c.Branch = 3
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 8
	}
	if c.ThreadsPerProc == 0 {
		c.ThreadsPerProc = 2
	}
	return c
}

// Result reports a run.
type Result struct {
	Elapsed     sim.Cycles
	Utilization float64
	Processed   uint64 // vertices dequeued and relaxed
	Pruned      uint64 // vertices dropped by beam pruning
	Scores      []uint32
	// Report is the rendered per-node counter table.
	Report string
}

// succ returns successor j of state s in the next layer, spreading
// deterministically for spatial but not temporal locality.
func succ(s, j, states int) int {
	return (s + j*7 + 1) % states
}

// weight is the deterministic transition cost of edge (v, j).
func weight(v, j int, maxW uint32) uint32 {
	h := uint32(v)*2654435761 + uint32(j)*40503
	return 1 + (h>>7)%maxW
}

// Reference computes the exact minimal scores by layer-ordered
// relaxation (the oracle for Validate).
func Reference(cfg Config) []uint32 {
	cfg = cfg.withDefaults()
	n := cfg.Layers * cfg.States
	score := make([]uint32, n)
	for i := range score {
		score[i] = Inf
	}
	for s := 0; s < cfg.States; s++ {
		score[s] = 0
	}
	for l := 0; l+1 < cfg.Layers; l++ {
		for s := 0; s < cfg.States; s++ {
			v := l*cfg.States + s
			if score[v] == Inf {
				continue
			}
			for j := 0; j < cfg.Branch; j++ {
				u := (l+1)*cfg.States + succ(s, j, cfg.States)
				if nd := score[v] + weight(v, j, cfg.MaxWeight); nd < score[u] {
					score[u] = nd
				}
			}
		}
	}
	return score
}

// Run executes the workload.//
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
	if cfg.Style == ContextSwitch {
		if cfg.SwitchCost == 0 {
			return Result{}, fmt.Errorf("beam: ContextSwitch style needs SwitchCost")
		}
		mcfg.Mode = proc.SwitchOnSync
		mcfg.SwitchCost = cfg.SwitchCost
	}
	m, err := core.NewMachine(mcfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.Procs > m.Nodes() {
		return Result{}, fmt.Errorf("beam: %d procs on %d nodes", cfg.Procs, m.Nodes())
	}
	// The delayed style keeps 1 dequeue + 1 delayed-read + Branch lock
	// handles plus a fadd and an enqueue in flight; the hardware has 8
	// delayed-operation slots.
	if cfg.Style == Delayed && cfg.Branch > 6 {
		return Result{}, fmt.Errorf("beam: Branch %d exceeds the delayed-op budget (max 6)", cfg.Branch)
	}
	w := newLattice(m, cfg)

	threads := 1
	if cfg.Style == ContextSwitch {
		threads = cfg.ThreadsPerProc
	}
	for p := 0; p < cfg.Procs; p++ {
		for k := 0; k < threads; k++ {
			p := p
			m.SpawnNamed(mesh.NodeID(p), fmt.Sprintf("beam%d.%d", p, k), func(t *proc.Thread) {
				w.worker(t, p)
			})
		}
	}
	elapsed, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Elapsed:     elapsed,
		Utilization: m.Utilization(),
		Processed:   w.processed,
		Pruned:      w.pruned,
		Scores:      w.readScores(),
		Report:      m.Stats().Report(elapsed),
	}
	if cfg.Validate {
		want := Reference(cfg)
		for v := range want {
			if res.Scores[v] != want[v] {
				return res, fmt.Errorf("beam: score[%d] = %d, reference says %d", v, res.Scores[v], want[v])
			}
		}
	}
	return res, nil
}

type lattice struct {
	m   *core.Machine
	cfg Config

	score memory.VAddr
	lock  memory.VAddr
	best  memory.VAddr // per-layer running minimum (beam pruning)
	pool  *work.Pool

	processed uint64
	pruned    uint64
}

func (w *lattice) owner(v int) int {
	s := v % w.cfg.States
	o := s * w.cfg.Procs / w.cfg.States
	if o >= w.cfg.Procs {
		o = w.cfg.Procs - 1
	}
	return o
}

func newLattice(m *core.Machine, cfg Config) *lattice {
	w := &lattice{m: m, cfg: cfg}
	n := cfg.Layers * cfg.States
	homes := func(words int) []mesh.NodeID {
		pages := (words + memory.PageWords - 1) / memory.PageWords
		hs := make([]mesh.NodeID, pages)
		for i := range hs {
			hs[i] = mesh.NodeID(w.owner(i * memory.PageWords % n))
		}
		return hs
	}
	w.score = m.AllocHomed(homes(n)...)
	w.lock = m.AllocHomed(homes(n)...)
	w.pool = work.New(m, cfg.Procs, n, w.owner)
	if cfg.Beam > 0 {
		w.best = m.Alloc(0, 1)
		for p := 1; p < cfg.Procs; p++ {
			m.Replicate(w.best, mesh.NodeID(p)) // prune tests read locally
		}
		for l := 0; l < cfg.Layers; l++ {
			init := Inf
			if l == 0 {
				init = 0
			}
			m.Poke(w.best+memory.VAddr(l), memory.Word(init))
		}
	}

	// Seed layer 0: every state active with score 0.
	for v := 0; v < n; v++ {
		sc := Inf
		if v < cfg.States {
			sc = 0
		}
		m.Poke(w.score+memory.VAddr(v), memory.Word(sc))
	}
	seeds := make([]int, cfg.States)
	for s := range seeds {
		seeds[s] = s
	}
	w.pool.Seed(seeds...)
	return w
}

func (w *lattice) scoreVA(v int) memory.VAddr { return w.score + memory.VAddr(v) }
func (w *lattice) lockVA(v int) memory.VAddr  { return w.lock + memory.VAddr(v) }

const spinBackoff sim.Cycles = 25

// innerWork is the computation charged per inner-loop iteration:
// "about 70 RISC instructions".
const innerWork sim.Cycles = 70

// pruneOrTrack applies beam pruning for vertex v at layer l with score
// sv: it reports true when the vertex falls outside the beam, and
// otherwise folds sv into the layer's running minimum via min-xchng.
// The best is read from the local replica — staleness only widens the
// effective beam.
func (w *lattice) pruneOrTrack(t *proc.Thread, l int, sv uint32) bool {
	if w.cfg.Beam == 0 {
		return false
	}
	best := uint32(t.Read(w.best + memory.VAddr(l)))
	if best < Inf && sv > best+w.cfg.Beam {
		w.pruned++
		return true
	}
	if sv < best {
		t.Verify(t.MinXchng(w.best+memory.VAddr(l), memory.Word(sv)))
	}
	return false
}

// relaxLocked updates successor u of v (whose lock the caller holds)
// and reports whether u improved. The caller re-queues improved
// successors after a fence has completed the score writes — the pool's
// flag protocol requires an item's state to be published before Add.
func (w *lattice) relaxLocked(t *proc.Thread, u int, nd uint32) bool {
	old := uint32(t.Read(w.scoreVA(u)))
	if nd >= old {
		return false
	}
	t.Write(w.scoreVA(u), memory.Word(nd))
	return true
}

// processBlocking is the straightforward coding: every primitive is
// issued and verified back to back.
func (w *lattice) processBlocking(t *proc.Thread, v int) {
	w.processed++
	t.Compute(innerWork)
	l, s := v/w.cfg.States, v%w.cfg.States
	if l+1 >= w.cfg.Layers {
		w.pool.Done(t)
		return
	}
	sv := uint32(t.Verify(t.DelayedRead(w.scoreVA(v))))
	if w.pruneOrTrack(t, l, sv) {
		w.pool.Done(t)
		return
	}
	for j := 0; j < w.cfg.Branch; j++ {
		u := (l+1)*w.cfg.States + succ(s, j, w.cfg.States)
		for t.FetchSetSync(w.lockVA(u))&memory.TopBit != 0 {
			t.Compute(spinBackoff)
		}
		improved := w.relaxLocked(t, u, sv+weight(v, j, w.cfg.MaxWeight))
		t.Fence() // publish the score before releasing the lock
		t.Write(w.lockVA(u), 0)
		if improved {
			w.pool.Add(t, u)
		}
	}
	w.pool.Done(t)
}

// processDelayed pipelines: all successor locks are issued in
// parallel, then verified — "the locking of all next vertices is
// performed in parallel" (§3.4).
func (w *lattice) processDelayed(t *proc.Thread, v int) {
	w.processed++
	t.Compute(innerWork)
	l, s := v/w.cfg.States, v%w.cfg.States
	if l+1 >= w.cfg.Layers {
		w.pool.Done(t)
		return
	}
	svh := t.DelayedRead(w.scoreVA(v)) // overlaps with lock issue
	succs := make([]int, w.cfg.Branch)
	locks := make([]proc.Handle, w.cfg.Branch)
	for j := 0; j < w.cfg.Branch; j++ {
		succs[j] = (l+1)*w.cfg.States + succ(s, j, w.cfg.States)
		locks[j] = t.FetchSet(w.lockVA(succs[j]))
	}
	sv := uint32(t.Verify(svh))
	if w.pruneOrTrack(t, l, sv) {
		// Locks were issued speculatively; release whatever was won.
		for j, u := range succs {
			if t.Verify(locks[j])&memory.TopBit == 0 {
				t.Write(w.lockVA(u), 0)
			}
		}
		t.Fence()
		w.pool.Done(t)
		return
	}
	got := make([]bool, w.cfg.Branch)
	conflict := false
	for j := range locks {
		got[j] = t.Verify(locks[j])&memory.TopBit == 0
		conflict = conflict || !got[j]
	}
	if conflict {
		// Another worker holds part of our successor set. Holding our
		// share while spinning for the rest can deadlock (both sides
		// wait holding what the other needs), so release everything
		// and fall back to one-lock-at-a-time — the thread then never
		// waits while holding a lock. Conflicts are rare, so the
		// common case keeps fully parallel locking.
		for j, u := range succs {
			if got[j] {
				t.Write(w.lockVA(u), 0)
			}
		}
		t.Fence()
		for j, u := range succs {
			for t.FetchSetSync(w.lockVA(u))&memory.TopBit != 0 {
				t.Compute(spinBackoff)
			}
			improved := w.relaxLocked(t, u, sv+weight(v, j, w.cfg.MaxWeight))
			t.Fence()
			t.Write(w.lockVA(u), 0)
			if improved {
				w.pool.Add(t, u)
			}
		}
		w.pool.Done(t)
		return
	}
	// All locks are held. Pipeline the rest of the iteration too:
	// fetch every successor's score with parallel delayed-reads,
	// write the improvements (writes never block), keep the active-
	// count fadds in flight, and publish everything with a single
	// fence before releasing the locks — the "room for speed
	// improvement through code scheduling and selective use of the
	// fence operation" of §3.1.
	reads := make([]proc.Handle, len(succs))
	for j, u := range succs {
		reads[j] = t.DelayedRead(w.scoreVA(u))
	}
	var improved []int
	for j, u := range succs {
		old := uint32(t.Verify(reads[j]))
		nd := sv + weight(v, j, w.cfg.MaxWeight)
		if nd >= old {
			continue
		}
		t.Write(w.scoreVA(u), memory.Word(nd))
		improved = append(improved, u)
	}
	// One fence publishes all score writes, then the locks release and
	// the improved successors are scheduled (Add requires the item's
	// state to be globally published first).
	t.Fence()
	for _, u := range succs {
		t.Write(w.lockVA(u), 0)
	}
	for _, u := range improved {
		w.pool.Add(t, u)
	}
	w.pool.Done(t)
}

// worker drains queues until the lattice is exhausted. The Delayed
// style additionally keeps the next dequeue of the local queue in
// flight while processing ("the next vertex is dequeued in parallel
// with the processing of the current state").
func (w *lattice) worker(t *proc.Thread, p int) {
	if w.cfg.Style == Delayed {
		s := w.pool.Session(p)
		for {
			v, ok := s.Get(t)
			if !ok {
				return
			}
			w.processDelayed(t, v)
		}
	}
	for {
		v, ok := w.pool.Get(t, p)
		if !ok {
			return
		}
		w.processBlocking(t, v)
	}
}

func (w *lattice) readScores() []uint32 {
	n := w.cfg.Layers * w.cfg.States
	out := make([]uint32, n)
	for v := range out {
		out[v] = uint32(w.m.Peek(w.scoreVA(v)))
	}
	return out
}

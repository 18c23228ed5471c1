// Package prodsys implements a forward-chaining production-system
// workload — one of the three applications the PLUS group used to
// evaluate the design before building it ("a production system
// application, a shortest-path program, and a speech recognition
// system", §2.5).
//
// Working memory is a shared bit-array of facts; rules are two-premise
// Horn clauses (a ∧ b → c). Workers process an agenda of newly
// asserted facts from per-node hardware queues: for each rule
// triggered by the fact they test the other premise and, when both
// hold, assert the conclusion with fetch-and-set (whose old value
// tells exactly one worker to schedule the new fact). The run
// terminates when the agenda drains — the fixpoint (forward closure)
// of the rule set, validated against a sequential closure.
package prodsys

import (
	"fmt"
	"math/rand"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/work"
)

// Rule is a ∧ b → c.
type Rule struct{ A, B, C int32 }

// Config parameterizes a run.
type Config struct {
	MeshW, MeshH int
	Procs        int
	// Facts is the working-memory size; Rules the number of generated
	// rules; Seeds the number of initially asserted facts.
	Facts, Rules, Seeds int
	Seed                int64
	// Copies replicates working memory at this level (1 = none).
	Copies   int
	Validate bool
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
	if c.Facts == 0 {
		c.Facts = 1024
	}
	if c.Rules == 0 {
		c.Rules = 2048
	}
	if c.Seeds == 0 {
		c.Seeds = 16
	}
	if c.Copies == 0 {
		c.Copies = 1
	}
	return c
}

// GenRules builds a deterministic random rule set.
func GenRules(cfg Config) []Rule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rules := make([]Rule, cfg.Rules)
	for i := range rules {
		rules[i] = Rule{
			A: int32(rng.Intn(cfg.Facts)),
			B: int32(rng.Intn(cfg.Facts)),
			C: int32(rng.Intn(cfg.Facts)),
		}
	}
	return rules
}

// Closure computes the sequential fixpoint: the set of derivable facts.
func Closure(cfg Config, rules []Rule) []bool {
	present := make([]bool, cfg.Facts)
	var agenda []int32
	for i := 0; i < cfg.Seeds; i++ {
		f := int32(i * (cfg.Facts / cfg.Seeds))
		if !present[f] {
			present[f] = true
			agenda = append(agenda, f)
		}
	}
	// Index rules by premise.
	byPremise := make([][]int, cfg.Facts)
	for ri, r := range rules {
		byPremise[r.A] = append(byPremise[r.A], ri)
		if r.B != r.A {
			byPremise[r.B] = append(byPremise[r.B], ri)
		}
	}
	for len(agenda) > 0 {
		f := agenda[0]
		agenda = agenda[1:]
		for _, ri := range byPremise[f] {
			r := rules[ri]
			if present[r.A] && present[r.B] && !present[r.C] {
				present[r.C] = true
				agenda = append(agenda, r.C)
			}
		}
	}
	return present
}

// Result reports a run.
type Result struct {
	Elapsed     sim.Cycles
	Utilization float64
	Fired       uint64 // rules fired (conclusions newly asserted)
	Derived     int    // facts present at fixpoint
	Present     []bool
	// Report is the rendered per-node counter table.
	Report string
}

// Run executes the workload.//
// Run is safe for concurrent use by the experiments sweep runner:
// every call builds a private machine (its own sim.Engine, mesh,
// stats and locally seeded RNGs) and shares no mutable state with
// other calls, so one fresh engine may run per worker goroutine.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	rules := GenRules(cfg)

	m, err := core.NewMachine(core.DefaultConfig(cfg.MeshW, cfg.MeshH))
	if err != nil {
		return Result{}, err
	}
	if cfg.Procs > m.Nodes() {
		return Result{}, fmt.Errorf("prodsys: %d procs on %d nodes", cfg.Procs, m.Nodes())
	}
	w := newEngine(m, rules, cfg)
	for p := 0; p < cfg.Procs; p++ {
		p := p
		m.SpawnNamed(mesh.NodeID(p), fmt.Sprintf("ps%d", p), func(t *proc.Thread) {
			w.worker(t, p)
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Elapsed:     elapsed,
		Utilization: m.Utilization(),
		Fired:       w.fired,
		Present:     w.readPresent(),
		Report:      m.Stats().Report(elapsed),
	}
	for _, p := range res.Present {
		if p {
			res.Derived++
		}
	}
	if cfg.Validate {
		want := Closure(cfg, rules)
		for f := range want {
			if res.Present[f] != want[f] {
				return res, fmt.Errorf("prodsys: fact %d presence %v, closure says %v", f, res.Present[f], want[f])
			}
		}
	}
	return res, nil
}

type engine struct {
	m     *core.Machine
	cfg   Config
	rules []Rule
	// byPremise indexes rules by either premise (plain Go — rule
	// memory is read-only program text, kept local on every node).
	byPremise [][]int

	present memory.VAddr // fact bit-array (one word per fact)
	pool    *work.Pool

	fired uint64
}

func (w *engine) owner(f int32) int {
	o := int(f) * w.cfg.Procs / w.cfg.Facts
	if o >= w.cfg.Procs {
		o = w.cfg.Procs - 1
	}
	return o
}

func newEngine(m *core.Machine, rules []Rule, cfg Config) *engine {
	w := &engine{m: m, cfg: cfg, rules: rules}
	w.byPremise = make([][]int, cfg.Facts)
	for ri, r := range rules {
		w.byPremise[r.A] = append(w.byPremise[r.A], ri)
		if r.B != r.A {
			w.byPremise[r.B] = append(w.byPremise[r.B], ri)
		}
	}
	homes := make([]mesh.NodeID, (cfg.Facts+memory.PageWords-1)/memory.PageWords)
	for i := range homes {
		homes[i] = mesh.NodeID(w.owner(int32(i * memory.PageWords)))
	}
	w.present = m.AllocHomed(homes...)
	w.pool = work.New(m, cfg.Procs, cfg.Facts, func(f int) int { return w.owner(int32(f)) })
	if cfg.Copies > 1 {
		for i := range homes {
			va := w.present + memory.VAddr(i*memory.PageWords)
			for k := 1; k < cfg.Copies && k < cfg.Procs; k++ {
				m.Replicate(va, mesh.NodeID((int(homes[i])+k)%cfg.Procs))
			}
		}
	}

	// Seed facts into their owners' queues.
	var seeds []int
	for i := 0; i < cfg.Seeds; i++ {
		f := i * (cfg.Facts / cfg.Seeds)
		if m.Peek(w.present+memory.VAddr(f))&memory.TopBit != 0 {
			continue
		}
		m.Poke(w.present+memory.VAddr(f), memory.TopBit)
		seeds = append(seeds, f)
	}
	w.pool.Seed(seeds...)
	return w
}

func (w *engine) presentVA(f int32) memory.VAddr { return w.present + memory.VAddr(f) }

// isPresent checks a premise at the master (authoritative) so a fact
// asserted concurrently on another node is never missed forever: the
// asserter re-agendas its conclusion, which re-tests every rule it
// appears in.
func (w *engine) isPresent(t *proc.Thread, f int32) bool {
	return t.Verify(t.DelayedRead(w.presentVA(f)))&memory.TopBit != 0
}

// assert adds fact f; the fetch-and-set old value elects the single
// worker that schedules it. The presence bit is verified at its master
// before Add, satisfying the pool's publish-before-Add rule.
func (w *engine) assert(t *proc.Thread, f int32) {
	if t.FetchSetSync(w.presentVA(f))&memory.TopBit != 0 {
		return // already present
	}
	w.fired++
	w.pool.Add(t, int(f))
}

// matchWork is the computation charged per rule match attempt.
const matchWork sim.Cycles = 30

// match processes a newly asserted fact: fire every rule it completes.
func (w *engine) match(t *proc.Thread, f int32) {
	for _, ri := range w.byPremise[f] {
		r := w.rules[ri]
		t.Compute(matchWork)
		other := r.A
		if other == f {
			other = r.B
		}
		// The triggering premise f is known present; test the other.
		if other == f || w.isPresent(t, other) {
			w.assert(t, r.C)
		}
	}
	w.pool.Done(t)
}

func (w *engine) worker(t *proc.Thread, p int) {
	for {
		f, ok := w.pool.Get(t, p)
		if !ok {
			return
		}
		w.match(t, int32(f))
	}
}

func (w *engine) readPresent() []bool {
	out := make([]bool, w.cfg.Facts)
	for f := range out {
		out[f] = w.m.Peek(w.presentVA(int32(f)))&memory.TopBit != 0
	}
	return out
}

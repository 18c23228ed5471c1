package main

import (
	"fmt"
	"time"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
)

// A microbenchmark times one layer operation through the layer's
// public API. prepare builds fresh state untimed and returns the timed
// body, which reports how many operations it performed.
type micro struct {
	name    string
	scale   float64 // nanoseconds per reported unit (1e3 for _us metrics)
	prepare func(n int) (body func() (ops int, err error), err error)
	n       int // operations per round at full size
}

const microRounds = 3

var micros = []micro{
	{"sim.event_ns", 1, prepEvent, 1 << 20},
	{"sim.coroutine_switch_ns", 1, prepCoroutine, 1 << 17},
	{"sim.shard_round_us", 1e3, prepShardRound, 1 << 14},
	{"mesh.send_ns", 1, prepSend(false), 1 << 18},
	{"mesh.send_contended_ns", 1, prepSend(true), 1 << 18},
	{"coherence.remote_read_ns", 1, prepRemoteRead, 1 << 16},
	{"coherence.replicated_write_ns", 1, prepReplicatedWrite, 1 << 16},
	{"coherence.rmw_ns", 1, prepRMW, 1 << 15},
	{"kernel.prefault_ns_per_page", 1, prepPrefault, 64},
	{"kernel.replicate_us", 1e3, prepReplicate, 1 << 10},
	{"proc.idle_until_ns", 1, prepIdleUntil, 1 << 19},
	{"proc.ctx_switch_ns", 1, prepCtxSwitch, 1 << 15},
	{"stats.emit_ns", 1, prepEmit, 1 << 22},
	{"stats.hist_observe_ns", 1, prepHistObserve, 1 << 23},
}

// runMicros runs every microbenchmark for microRounds rounds and
// reports the median cost per operation.
func runMicros(tiny bool) (map[string]float64, error) {
	out := make(map[string]float64, len(micros))
	for _, m := range micros {
		n := m.n
		if tiny {
			n = max(n>>8, 16)
		}
		per := make([]float64, 0, microRounds)
		for r := 0; r < microRounds; r++ {
			body, err := m.prepare(n)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			t0 := time.Now()
			ops, err := body()
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			if ops == 0 {
				return nil, fmt.Errorf("%s: no operations measured", m.name)
			}
			per = append(per, float64(d.Nanoseconds())/float64(ops)/m.scale)
		}
		_, med, _ := quartiles(per)
		out[m.name] = med
	}
	return out, nil
}

// chain is an event sink that reschedules itself every gap cycles
// while it has budget left.
type chain struct {
	eng  *sim.Engine
	gap  sim.Cycles
	left int
}

func (c *chain) HandleEvent(int, any) {
	if c.left > 0 {
		c.left--
		c.eng.ScheduleEvent(c.gap, c, 0, nil)
	}
}

// prepEvent: schedule+dispatch with 1,024 events pending — each
// dispatch pops one chain's event and pushes its next one.
func prepEvent(n int) (func() (int, error), error) {
	const pending = 1024
	eng := sim.NewEngine()
	for i := 0; i < pending; i++ {
		eng.ScheduleEvent(sim.Cycles(i), &chain{eng: eng, gap: pending, left: n}, 0, nil)
	}
	return func() (int, error) { return int(eng.RunLimit(uint64(n))), nil }, nil
}

// prepCoroutine: two coroutines waiting in lockstep, so every wait
// hands the engine to the other coroutine (a resume and a park).
func prepCoroutine(n int) (func() (int, error), error) {
	eng := sim.NewEngine()
	for i := 0; i < 2; i++ {
		co := sim.NewCoroutine(eng, fmt.Sprint("co", i), func(co *sim.Coroutine) {
			for k := 0; k < n/2; k++ {
				co.WaitCycles(1)
			}
		})
		co.WakeAfter(0)
	}
	return func() (int, error) { eng.Run(); return n / 2 * 2, nil }, nil
}

// prepShardRound: two shard engines with one event per lookahead
// window, so each round is a barrier with one dispatch per shard.
func prepShardRound(n int) (func() (int, error), error) {
	const window = 12
	ss := &sim.ShardSet{Window: window, Drain: func() int { return 0 }}
	for i := 0; i < 2; i++ {
		eng := sim.NewEngine()
		eng.ScheduleEvent(0, &chain{eng: eng, gap: window, left: n - 1}, 0, nil)
		ss.Engines = append(ss.Engines, eng)
	}
	return func() (int, error) { ss.Run(); return n, nil }, nil
}

// prepSend: the message path on a 16x16 mesh — pooled alloc, route,
// typed delivery, recycle — in bursts of 64 sends. Uncontended, the
// pairs are spread over the mesh; contended, every node of the top row
// sends to the far corner so the messages queue on shared links.
func prepSend(contended bool) func(n int) (func() (int, error), error) {
	return func(n int) (func() (int, error), error) {
		eng := sim.NewEngine()
		cfg := mesh.DefaultConfig(16, 16)
		cfg.Contention = contended
		m := mesh.New(eng, cfg)
		drain := mesh.PortFunc(func(p *mesh.Msg) { m.FreeMsg(p) })
		for id := 0; id < m.Nodes(); id++ {
			m.Attach(mesh.NodeID(id), drain)
		}
		return func() (int, error) {
			for i := 0; i < n; i++ {
				src, dst := mesh.NodeID(i%256), mesh.NodeID(255-i%256)
				if contended {
					src, dst = mesh.NodeID(i%16), 255
				}
				m.Send(src, dst, 4, m.AllocMsg())
				if i%64 == 63 {
					eng.Run()
				}
			}
			eng.Run()
			return n, nil
		}, nil
	}
}

// machineOp builds a fresh machine, spawns body on node 0 and returns
// the timed Run; body reports its operation count through ops.
func machineOp(cfg core.Config, setup func(m *core.Machine) func(t *proc.Thread) int) (func() (int, error), error) {
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	body := setup(m)
	ops := 0
	m.Spawn(0, func(t *proc.Thread) { ops = body(t) })
	return func() (int, error) {
		_, err := m.Run()
		return ops, err
	}, nil
}

// prepRemoteRead: blocking reads of a page mastered on another node
// (PLUS never caches remote data, so each is a mesh round trip).
func prepRemoteRead(n int) (func() (int, error), error) {
	return machineOp(core.DefaultConfig(2, 2), func(m *core.Machine) func(*proc.Thread) int {
		va := m.Alloc(3, 1)
		return func(t *proc.Thread) int {
			for i := 0; i < n; i++ {
				t.Read(va + memory.VAddr(i%memory.PageWords))
			}
			return n
		}
	})
}

// prepReplicatedWrite: local-master writes to a page with three
// copies, each write fanning out down the copy-list; a fence every 64
// writes keeps the pending-writes cache from filling.
func prepReplicatedWrite(n int) (func() (int, error), error) {
	return machineOp(core.DefaultConfig(2, 2), func(m *core.Machine) func(*proc.Thread) int {
		va := m.Alloc(0, 1)
		m.Replicate(va, 1, 2, 3)
		return func(t *proc.Thread) int {
			for i := 0; i < n; i++ {
				t.Write(va+memory.VAddr(i%memory.PageWords), memory.Word(i))
				if i%64 == 63 {
					t.Fence()
				}
			}
			t.Fence()
			return n
		}
	})
}

// prepRMW: blocking fetch-and-adds on a remote word.
func prepRMW(n int) (func() (int, error), error) {
	return machineOp(core.DefaultConfig(2, 2), func(m *core.Machine) func(*proc.Thread) int {
		va := m.Alloc(3, 1)
		return func(t *proc.Thread) int {
			for i := 0; i < n; i++ {
				t.FaddSync(va, 1)
			}
			return n
		}
	})
}

// prepIdleUntil: the open-loop pacing call, one thread alone on its
// processor.
func prepIdleUntil(n int) (func() (int, error), error) {
	return machineOp(core.DefaultConfig(2, 1), func(m *core.Machine) func(*proc.Thread) int {
		return func(t *proc.Thread) int {
			for i := 0; i < n; i++ {
				t.IdleUntil(t.Now() + 10)
			}
			return n
		}
	})
}

// prepCtxSwitch: two SwitchOnSync threads on one processor issuing
// remote fetch-and-adds, so every fetch-and-add switches to the other
// thread. Reports switches, not operations.
func prepCtxSwitch(n int) (func() (int, error), error) {
	cfg := core.DefaultConfig(2, 1)
	cfg.Mode, cfg.SwitchCost = proc.SwitchOnSync, 40
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	va := m.Alloc(1, 1)
	for k := 0; k < 2; k++ {
		m.Spawn(0, func(t *proc.Thread) {
			for i := 0; i < n/2; i++ {
				t.FaddSync(va, 1)
			}
		})
	}
	return func() (int, error) {
		_, err := m.Run()
		return int(m.Stats().Totals().CtxSwitches), err
	}, nil
}

// prepPrefault: warm n pages on every node of a 16x16 machine; one op
// is one page-table install.
func prepPrefault(n int) (func() (int, error), error) {
	m, err := core.NewMachine(core.DefaultConfig(16, 16))
	if err != nil {
		return nil, err
	}
	homes := make([]mesh.NodeID, n)
	for i := range homes {
		homes[i] = mesh.NodeID(i % m.Nodes())
	}
	va := m.AllocHomed(homes...)
	return func() (int, error) {
		for node := 0; node < m.Nodes(); node++ {
			m.Prefault(mesh.NodeID(node), va, n)
		}
		return n * m.Nodes(), nil
	}, nil
}

// prepReplicate: pre-run page replication (a kernel copy-list splice
// plus a page copy) onto 15 nodes in turn.
func prepReplicate(n int) (func() (int, error), error) {
	m, err := core.NewMachine(core.DefaultConfig(4, 4))
	if err != nil {
		return nil, err
	}
	va := m.Alloc(0, n)
	return func() (int, error) {
		for i := 0; i < n; i++ {
			m.Replicate(va+memory.VAddr(i*memory.PageWords), mesh.NodeID(1+i%15))
		}
		return n, nil
	}, nil
}

// prepEmit: one structured event into a bound observer's ring.
func prepEmit(n int) (func() (int, error), error) {
	o := stats.NewObserver(stats.ObserveConfig{})
	var now sim.Cycles
	o.Bind(func() sim.Cycles { return now }, stats.TraceMeta{Nodes: 16})
	return func() (int, error) {
		for i := 0; i < n; i++ {
			now = sim.Cycles(i)
			o.Emit(stats.EvUpdate, i&15, 0, 0, uint64(i), 1)
		}
		if o.EventCount() != uint64(n) {
			return 0, fmt.Errorf("observer counted %d of %d events", o.EventCount(), n)
		}
		return n, nil
	}, nil
}

// prepHistObserve: one latency sample into a log2 histogram.
func prepHistObserve(n int) (func() (int, error), error) {
	var h stats.Hist
	return func() (int, error) {
		for i := 0; i < n; i++ {
			h.Observe(uint64(i*2654435761) & 0xffff)
		}
		if h.Count != uint64(n) {
			return 0, fmt.Errorf("histogram counted %d of %d samples", h.Count, n)
		}
		return n, nil
	}, nil
}

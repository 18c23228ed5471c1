package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
)

// runBarrierReplicate builds a 4x4 machine with link contention on,
// homes one page on node 8 with a non-zero word, and has a thread on
// node 9 replicate it onto node 9 and then compute for computeAfter
// cycles. On two shards, node 9's request lands at a barrier, and the
// page copy the splice sends is a contended send made during barrier
// work. It returns the run's digest.
func runBarrierReplicate(t *testing.T, shards int, computeAfter sim.Cycles) digest {
	t.Helper()
	cfg := core.DefaultConfig(4, 4)
	cfg.Shards = shards
	cfg.NetContention = true
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(shards=%d): %v", shards, err)
	}
	va := m.Alloc(8, 1)
	m.Poke(va, 1)
	m.Spawn(9, func(th *proc.Thread) {
		m.Kernel().Replicate(va.Page(), 9, nil)
		th.Compute(computeAfter)
	})
	elapsed, err := m.Run()
	if err != nil {
		t.Fatalf("Run(shards=%d, compute=%d): %v", shards, computeAfter, err)
	}
	return digestOf(m, elapsed, []memory.VAddr{va}, nil)
}

// TestShardBarrierReplicateContended pins a page copy sent by barrier
// work under link contention: it must be walked and delivered in that
// same barrier, neither stranded (the replica never filled) nor
// replayed a barrier late (an injection behind the destination's
// clock). Both a thread that exits at once and one that keeps running
// must end exactly like the serial run.
func TestShardBarrierReplicateContended(t *testing.T) {
	for _, compute := range []sim.Cycles{0, 100} {
		t.Run(fmt.Sprintf("compute=%d", compute), func(t *testing.T) {
			serial := runBarrierReplicate(t, 1, compute)
			if want := []mesh.NodeID{8, 9}; !reflect.DeepEqual(serial.Copies[0], want) {
				t.Fatalf("serial copy-list %v, want %v", serial.Copies[0], want)
			}
			if d := runBarrierReplicate(t, 2, compute).diff(serial); d != "" {
				t.Errorf("shards=2 differs from serial: %s", d)
			}
		})
	}
}

// TestShardSetRoundsPinned pins the run loop's account of a fixed 4×4
// program: the number of lookahead rounds is a property of the program
// and the window alone, the same on one engine as on two; at K=2 so is
// the number of Defer calls the barriers replay (here every
// cross-shard message), the two engines together dispatch exactly the
// serial engine's events, and the busiest engine's per-round share
// lies between half and all of them. One engine has no worker to wait
// for and, in this program, nothing crossing a shard to replay.
func TestShardSetRoundsPinned(t *testing.T) {
	run := func(shards int) sim.ShardStats {
		cfg := core.DefaultConfig(4, 4)
		cfg.Shards = shards
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatalf("NewMachine(shards=%d): %v", shards, err)
		}
		page := m.Alloc(0, 1)
		m.Replicate(page, 5, 10, 15)
		for node := 0; node < m.Nodes(); node++ {
			m.Spawn(mesh.NodeID(node), func(th *proc.Thread) {
				for i := 0; i < 20; i++ {
					th.Write(page+memory.VAddr(node), memory.Word(i))
					th.Read(page + memory.VAddr((node+1)%m.Nodes()))
					th.Compute(7)
				}
				th.Fence()
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		st := m.ShardStats()
		if len(st.Dispatches) != shards || len(st.Wait) != shards {
			t.Fatalf("shards=%d: %d dispatch and %d wait slots", shards, len(st.Dispatches), len(st.Wait))
		}
		return st
	}
	const wantRounds, wantReplayed = 160, 800
	serial := run(1)
	if serial.Rounds != wantRounds || serial.Wait[0] != 0 || serial.Replayed != 0 ||
		events(serial) == 0 || serial.PeakDispatches != events(serial) {
		t.Fatalf("serial: %d rounds, wait %v, %d replayed, peak %d of %d events; want %d, 0, 0, all of some",
			serial.Rounds, serial.Wait[0], serial.Replayed, serial.PeakDispatches, events(serial), wantRounds)
	}
	for rep := 0; rep < 2; rep++ {
		st := run(2)
		if st.Rounds != wantRounds {
			t.Errorf("K=2 rep %d: %d rounds, want %d", rep, st.Rounds, wantRounds)
		}
		if st.Replayed != wantReplayed || st.ReplayTime <= 0 {
			t.Errorf("K=2 rep %d: %d calls replayed in %v, want %d in some time", rep, st.Replayed, st.ReplayTime, wantReplayed)
		}
		if events(st) != events(serial) || st.Dispatches[0] == 0 || st.Dispatches[1] == 0 {
			t.Errorf("K=2 rep %d: dispatches %v, want both engines busy and %d in all", rep, st.Dispatches, events(serial))
		}
		if 2*st.PeakDispatches < events(st) || st.PeakDispatches > events(st) {
			t.Errorf("K=2 rep %d: peak %d outside [%d/2, %d]", rep, st.PeakDispatches, events(st), events(st))
		}
	}
}

// events sums a run's dispatches over its engines.
func events(st sim.ShardStats) uint64 {
	var n uint64
	for _, d := range st.Dispatches {
		n += d
	}
	return n
}

// emitSink is a deferred call that emits one event on a shard child,
// stamped with the time it was deferred at (as a contended link walk
// stamps its hops with the send time).
type emitSink struct {
	o    *stats.Observer
	node int
	at   sim.Cycles
}

func (s emitSink) HandleEvent(mark int, _ any) {
	s.o.EmitAt(s.at, stats.EvUpdate, s.node, 0, 0, uint64(mark), 0)
}

// TestShardSetObserverDeferOrder pins where a shard child's events
// land relative to work its engine defers. Two nodes, on one engine or
// on two, each run dispatches that emit E1, defer a call emitting E2,
// then emit E3. The call waits for the barrier, and the ring must
// still read E1 E2 E3 per dispatch, interleaved across the engines
// exactly as on one.
func TestShardSetObserverDeferOrder(t *testing.T) {
	run := func(shards int) []stats.Event {
		master := stats.NewObserver(stats.ObserveConfig{Events: 64})
		engines := make([]*sim.Engine, shards)
		kids := make([]*stats.Observer, shards)
		for s := range engines {
			engines[s] = sim.NewEngine()
			kids[s] = master.ShardChild(engines[s])
		}
		for node, times := range [][]sim.Cycles{{3, 8}, {3, 5, 6}} {
			e, o := engines[node%shards], kids[node%shards]
			e.SetLane(int32(node))
			for _, at := range times {
				e.ScheduleEventAt(at, fnSink{}, 0, func() {
					o.Emit(stats.EvUpdate, node, 0, 0, 1, 0)
					e.Defer(emitSink{o, node, at}, 2, nil)
					o.Emit(stats.EvUpdate, node, 0, 0, 3, 0)
				})
			}
		}
		(&sim.ShardSet{Engines: engines, Window: 2}).Run()
		return slices.Collect(master.All())
	}
	want, got := run(1), run(2)
	if len(want) != 15 {
		t.Fatalf("one engine recorded %d events, want 15", len(want))
	}
	if firstDiff(got, want) != "" {
		t.Fatalf("two engines recorded\n%v\none engine\n%v", got, want)
	}
}

// twoRunDigest is what two Runs of one machine show: the machine clock
// and elapsed cycles after each Run, every thread's clock after every
// operation, and the observed event stream.
type twoRunDigest struct {
	Now     []sim.Cycles
	Elapsed []sim.Cycles
	Logs    [][]uint64
	Events  []stats.Event
}

// runTwice runs a 4×4 observed program twice on one machine. A page
// homed on node 15 is copied in the background onto node 12 before the
// first Run and onto node 6 between the Runs; at two and four shards
// the second copy crosses a band boundary. Each Run spawns a thread on
// every node that reads, writes and computes against the page.
func runTwice(t *testing.T, shards int) twoRunDigest {
	t.Helper()
	cfg := core.DefaultConfig(4, 4)
	cfg.Shards = shards
	cfg.Observe = stats.NewObserver(stats.ObserveConfig{Events: 1 << 13})
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(shards=%d): %v", shards, err)
	}
	va := m.Alloc(15, 1)
	var d twoRunDigest
	for run, copyTo := range []mesh.NodeID{12, 6} {
		m.Kernel().Replicate(va.Page(), copyTo, nil)
		for node := 0; node < m.Nodes(); node++ {
			log := len(d.Logs)
			d.Logs = append(d.Logs, nil)
			m.Spawn(mesh.NodeID(node), func(th *proc.Thread) {
				for i := 0; i < 6; i++ {
					th.Write(va+memory.VAddr(node), memory.Word(run*100+i))
					d.Logs[log] = append(d.Logs[log], uint64(th.Read(va+memory.VAddr((node+5)%16))), uint64(th.Now()))
					th.Compute(sim.Cycles(3 + node%4))
				}
			})
		}
		elapsed, err := m.Run()
		if err != nil {
			t.Fatalf("Run %d (shards=%d): %v", run, shards, err)
		}
		d.Now = append(d.Now, m.Now())
		d.Elapsed = append(d.Elapsed, elapsed)
	}
	if n := cfg.Observe.Overwritten(); n > 0 {
		t.Fatalf("shards=%d: %d events overflowed the ring", shards, n)
	}
	d.Events = slices.Collect(cfg.Observe.All())
	return d
}

// TestShardSecondRunClock pins where a sharded machine's clock stands
// between Runs: at its last activity, as on one engine, not at the last
// round's horizon. Work between the Runs (a background copy) and the
// whole second Run must then match one engine cycle for cycle.
func TestShardSecondRunClock(t *testing.T) {
	serial := runTwice(t, 1)
	for _, k := range []int{2, 4} {
		got := runTwice(t, k)
		if !reflect.DeepEqual(serial.Now, got.Now) || !reflect.DeepEqual(serial.Elapsed, got.Elapsed) {
			t.Errorf("shards=%d: clock %v after the runs (elapsed %v), serial %v (%v)", k, got.Now, got.Elapsed, serial.Now, serial.Elapsed)
		}
		if !reflect.DeepEqual(serial.Logs, got.Logs) {
			t.Errorf("shards=%d: thread logs diverged from serial", k)
		}
		if d := firstDiff(got.Events, serial.Events); d != "" {
			t.Errorf("shards=%d: event%s", k, d)
		}
	}
}

// fnSink is the tests' event sink: each event runs the func() it
// carries as data.
type fnSink struct{}

func (fnSink) HandleEvent(_ int, data any) { data.(func())() }

package core_test

import (
	"fmt"
	"math/rand"
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

// digest captures everything a run can observe: cycle-exact per-thread
// operation logs (every value read plus the clock after every
// operation), the final memory image, elapsed time and the full
// counter block. Two runs with equal digests executed the same
// schedule.
type digest struct {
	Elapsed  sim.Cycles
	Logs     [][]uint64
	Image    [][]memory.Word
	Totals   stats.Node
	Messages uint64
	Updates  uint64
	Relia    stats.Reliability
	Crash    stats.CrashBlock
	Net      mesh.Stats
	// Observer exports (observer legs only): the full merged event
	// stream, the total pushed count (ring eviction included), and the
	// folded latency histograms.
	Events     []string
	EventCount uint64
	Metrics    stats.Metrics
}

const (
	fuzzMeshW = 4
	fuzzMeshH = 4
	fuzzPages = 8
	fuzzOps   = 300
)

// fuzzLeg is one configuration of the random program: the network's
// fault model, the write-combining batch size, config mods applied
// before construction (contention, an observer, ...), and whether the
// threads also pass a token around the ring of nodes with Sleep/Wake.
type fuzzLeg struct {
	name   string
	faults mesh.FaultConfig
	batch  int
	mods   []func(*core.Config)
	ring   bool
}

// ringEvery is the number of random operations between two passes of
// the token in a ring leg.
const ringEvery = 50

// runRandom executes a seeded random program — every node runs one
// thread issuing a mixed stream of reads, writes, delayed RMWs,
// fences and compute against a shared page set, some pages replicated
// — on the given shard count, and returns its digest. In a ring leg,
// every ringEvery operations the token goes once around the nodes:
// node 0 wakes node 1 and sleeps until node n-1 wakes it, every other
// node sleeps until its predecessor wakes it and then wakes its
// successor. Every shard count's tiling cuts the ring, so some of the
// wakes cross shards.
func runRandom(t *testing.T, shards int, seed int64, leg fuzzLeg) digest {
	t.Helper()
	cfg := core.DefaultConfig(fuzzMeshW, fuzzMeshH)
	cfg.Shards = shards
	cfg.Faults = leg.faults
	cfg.Timing.MaxBatchWrites = leg.batch
	for _, mod := range leg.mods {
		mod(&cfg)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(shards=%d): %v", shards, err)
	}
	n := m.Nodes()

	bases := make([]memory.VAddr, fuzzPages)
	for pg := 0; pg < fuzzPages; pg++ {
		home := mesh.NodeID((pg * 5) % n)
		bases[pg] = m.Alloc(home, 1)
		if pg%2 == 0 {
			m.Replicate(bases[pg], mesh.NodeID((int(home)+3)%n), mesh.NodeID((int(home)+7)%n))
		}
		for off := 0; off < memory.PageWords; off++ {
			m.Poke(bases[pg]+memory.VAddr(off), memory.Word(uint32(pg*memory.PageWords+off)))
		}
	}

	logs := make([][]uint64, n)
	threads := make([]*proc.Thread, n)
	for node := 0; node < n; node++ {
		node := node
		threads[node] = m.SpawnNamed(mesh.NodeID(node), fmt.Sprintf("fuzz%d", node), func(th *proc.Thread) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(node)))
			rec := func(v uint64) { logs[node] = append(logs[node], v) }
			for op := 0; op < fuzzOps; op++ {
				if leg.ring && op%ringEvery == ringEvery-1 {
					next := threads[(node+1)%n]
					if node == 0 {
						th.Wake(next)
						th.Sleep()
					} else {
						th.Sleep()
						th.Wake(next)
					}
					rec(uint64(th.Now()))
				}
				va := bases[rng.Intn(fuzzPages)] + memory.VAddr(rng.Intn(memory.PageWords))
				switch rng.Intn(10) {
				case 0, 1, 2:
					rec(uint64(th.Read(va)))
				case 3, 4:
					th.Write(va, memory.Word(rng.Uint32()))
				case 5:
					rec(uint64(th.FaddSync(va, int32(rng.Intn(7)-3))))
				case 6:
					rec(uint64(th.MinXchngSync(va, memory.Word(rng.Uint32()))))
				case 7:
					h := th.DelayedRead(va)
					th.Compute(sim.Cycles(1 + rng.Intn(30)))
					rec(uint64(th.Verify(h)))
				case 8:
					th.Compute(sim.Cycles(1 + rng.Intn(50)))
				case 9:
					th.Fence()
				}
				rec(uint64(th.Now()))
			}
		})
	}

	elapsed, err := m.Run()
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	d := digest{
		Elapsed:  elapsed,
		Logs:     logs,
		Image:    make([][]memory.Word, fuzzPages),
		Totals:   m.Stats().Totals(),
		Messages: m.Stats().Messages(),
		Updates:  m.Stats().MsgUpdate,
		Relia:    m.Stats().Reliability(),
		Crash:    m.Stats().Crash(),
		Net:      m.Mesh().Stats(),
	}
	for pg := 0; pg < fuzzPages; pg++ {
		img := make([]memory.Word, memory.PageWords)
		for off := range img {
			img[off] = m.Peek(bases[pg] + memory.VAddr(off))
		}
		d.Image[pg] = img
	}
	if o := cfg.Observe; o != nil {
		for ev := range o.All() {
			d.Events = append(d.Events, ev.String())
		}
		d.EventCount = o.EventCount()
		d.Metrics = o.Metrics
	}
	return d
}

// diffDigest pinpoints the first divergence between two digests, for
// actionable failure output.
func diffDigest(t *testing.T, want, got digest, label string) {
	t.Helper()
	if want.Elapsed != got.Elapsed {
		t.Errorf("%s: elapsed %d != serial %d", label, got.Elapsed, want.Elapsed)
	}
	for n := range want.Logs {
		if len(want.Logs[n]) != len(got.Logs[n]) {
			t.Errorf("%s: thread %d log length %d != serial %d", label, n, len(got.Logs[n]), len(want.Logs[n]))
			continue
		}
		for i := range want.Logs[n] {
			if want.Logs[n][i] != got.Logs[n][i] {
				t.Errorf("%s: thread %d log[%d] = %d, serial %d", label, n, i, got.Logs[n][i], want.Logs[n][i])
				break
			}
		}
	}
	for pg := range want.Image {
		for off := range want.Image[pg] {
			if want.Image[pg][off] != got.Image[pg][off] {
				t.Errorf("%s: page %d word %d = %#x, serial %#x", label, pg, off, got.Image[pg][off], want.Image[pg][off])
				break
			}
		}
	}
	if len(want.Events) != len(got.Events) {
		t.Errorf("%s: %d observer events, serial %d (pushed %d vs %d)",
			label, len(got.Events), len(want.Events), got.EventCount, want.EventCount)
	} else {
		for i := range want.Events {
			if want.Events[i] != got.Events[i] {
				t.Errorf("%s: event[%d] = %q, serial %q", label, i, got.Events[i], want.Events[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: digest differs from serial run (counters: got %+v msgs=%d, want %+v msgs=%d; net got %+v want %+v; reliability got %+v want %+v)",
			label, got.Totals, got.Messages, want.Totals, want.Messages, got.Net, want.Net, got.Relia, want.Relia)
	}
}

// TestShardEquivalenceFuzz runs seeded random programs serially and on
// 2, 4 and 8 shards and requires byte-identical digests: same elapsed
// cycles, same per-thread values and timestamps, same memory images,
// same counters — and for observed legs, the same merged event stream
// and latency histograms. Eleven legs stress the paths most likely to
// diverge: the plain protocol, the unreliable network (per-source-node
// fault PRNGs, retransmission timers), write combining (multi-word
// batches interacting with the lookahead window), link contention
// (mid-round sends replayed at barriers in serial dispatch order), a
// structured observer (mid-round events queued on the engines' Defer
// logs and pushed as the barrier replays them), contention
// and observation together, both on the unreliable network (where a
// send's duplicate and delay events precede its deferred hop events),
// the runtime invariant checker on a faulty network (checked at
// barriers), a token passed around the nodes with Sleep/Wake,
// observed on a faulty network (every cross-node wake a message, so
// wakes crossing shards land exactly where they land serially), and
// bounded link buffers, observed, on a reliable network and with
// combining on a lossy one (admission, NACKs and every fault draw run
// at barriers in serial order). Three crash legs run the failover path
// (crash, restart, suspicion and resync hops as barrier work): two
// overlapping outages, observed and checked; two more with loss,
// contention, combining and the observer; and two outages of holders
// of one page.
func TestShardEquivalenceFuzz(t *testing.T) {
	contention := func(c *core.Config) { c.NetContention = true }
	observe := func(c *core.Config) {
		c.Observe = stats.NewObserver(stats.ObserveConfig{Events: 1 << 15})
	}
	checked := func(c *core.Config) {
		c.CheckInvariants = true
		c.InvariantPeriod = 700
	}
	legs := []fuzzLeg{
		{name: "base", batch: 1},
		{name: "faults", batch: 1, faults: mesh.FaultConfig{
			Seed: 11, DropRate: 0.02, DupRate: 0.02, DelayRate: 0.03, DelayMax: 40,
		}},
		{name: "combining", batch: 4},
		{name: "contention", batch: 1, mods: []func(*core.Config){contention}},
		{name: "observer", batch: 1, mods: []func(*core.Config){observe}},
		{name: "contention+observer", batch: 1, mods: []func(*core.Config){contention, observe}},
		{name: "faults+contention+observer", batch: 1, faults: mesh.FaultConfig{
			Seed: 11, DropRate: 0.02, DupRate: 0.02, DelayRate: 0.03, DelayMax: 40,
		}, mods: []func(*core.Config){contention, observe}},
		{name: "invariants", batch: 1, faults: mesh.FaultConfig{
			Seed: 5, DropRate: 0.02, DelayRate: 0.03, DelayMax: 40,
		}, mods: []func(*core.Config){checked}},
		{name: "sleepwake", batch: 1, ring: true, faults: mesh.FaultConfig{
			Seed: 7, DropRate: 0.02, DupRate: 0.02, DelayRate: 0.03, DelayMax: 40,
		}, mods: []func(*core.Config){observe}},
		{name: "linkbuf", batch: 1, faults: mesh.FaultConfig{LinkBufFlits: 4},
			mods: []func(*core.Config){contention, observe}},
		{name: "linkbuf+faults", batch: 4, faults: mesh.FaultConfig{
			Seed: 13, DropRate: 0.05, DupRate: 0.05, DelayRate: 0.05, DelayMax: 40, LinkBufFlits: 4,
		}, mods: []func(*core.Config){contention, observe}},
		{name: "crash", batch: 1, faults: mesh.FaultConfig{Crashes: []mesh.CrashEvent{
			{Node: 0, At: 3000, Duration: 5000}, {Node: 13, At: 4000, Duration: 7000},
		}}, mods: []func(*core.Config){observe, checked}},
		{name: "crash+faults", batch: 4, faults: mesh.FaultConfig{
			Seed: 17, DropRate: 0.02, DupRate: 0.02, DelayRate: 0.03, DelayMax: 40,
			Crashes: []mesh.CrashEvent{{Node: 10, At: 2500, Duration: 6000}, {Node: 7, At: 2600, Duration: 3000}},
		}, mods: []func(*core.Config){contention, observe}},
		{name: "crash-shared-page", batch: 1, faults: mesh.FaultConfig{Crashes: overlapCrashes},
			mods: []func(*core.Config){contention, checked}},
	}
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			for _, seed := range seeds {
				serial := runRandom(t, 1, seed, leg)
				if leg.faults.LinkBufFlits > 0 && serial.Net.Nacked == 0 {
					t.Fatalf("seed %d: no send was refused by a full link buffer — the leg lost its point", seed)
				}
				if len(leg.faults.Crashes) > 0 && serial.Crash.Failovers != uint64(len(leg.faults.Crashes)) {
					t.Fatalf("seed %d: %d failovers for %d outages", seed, serial.Crash.Failovers, len(leg.faults.Crashes))
				}
				for _, k := range []int{2, 4, 8} {
					got := runRandom(t, k, seed, leg)
					diffDigest(t, serial, got, fmt.Sprintf("%s seed=%d shards=%d", leg.name, seed, k))
				}
			}
		})
	}
}

// kernelOpsDigest captures what a mid-run kernel page operation must
// preserve across shard counts: the final copy-list of every page
// (master first, in list order), the final memory image, and the
// observed event stream. A splice requested mid-run lands at the next
// lookahead barrier, whose instants are the same at every shard count,
// so all three match exactly.
type kernelOpsDigest struct {
	Copies [][]mesh.NodeID
	Image  [][]memory.Word
	Events []string
}

// runKernelOps executes a program whose threads issue runtime
// Replicate calls mid-run — from their own nodes, while
// traffic to the affected pages is in flight — and returns the
// copy-list and memory digest with the observed event stream. Node n's
// thread draws from rand.NewSource(base + n).
func runKernelOps(t *testing.T, shards int, contention bool, base int64) kernelOpsDigest {
	t.Helper()
	cfg := core.DefaultConfig(fuzzMeshW, fuzzMeshH)
	cfg.Shards = shards
	cfg.NetContention = contention
	cfg.Observe = stats.NewObserver(stats.ObserveConfig{Events: 1 << 15})
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(shards=%d): %v", shards, err)
	}
	n := m.Nodes()
	bases := make([]memory.VAddr, fuzzPages)
	for pg := 0; pg < fuzzPages; pg++ {
		bases[pg] = m.Alloc(mesh.NodeID((pg*3)%n), 1)
		for off := 0; off < memory.PageWords; off++ {
			m.Poke(bases[pg]+memory.VAddr(off), memory.Word(uint32(pg*memory.PageWords+off)))
		}
	}
	for node := 0; node < n; node++ {
		node := node
		m.SpawnNamed(mesh.NodeID(node), fmt.Sprintf("kop%d", node), func(th *proc.Thread) {
			rng := rand.New(rand.NewSource(base + int64(node)))
			for op := 0; op < 120; op++ {
				pg := rng.Intn(fuzzPages)
				va := bases[pg] + memory.VAddr(rng.Intn(memory.PageWords))
				switch op % 6 {
				case 0, 1:
					th.Read(va)
				case 2:
					th.Write(va, memory.Word(rng.Uint32()))
				case 3:
					th.Fence()
				case 4:
					th.Compute(sim.Cycles(1 + rng.Intn(40)))
				case 5:
					// Every node pulls a copy of a page it touches onto
					// itself mid-run, with its own and other nodes' traffic
					// to the page still in flight; the splice lands at the
					// next barrier. The body touches the machine directly,
					// so it first waits for its earlier calls to run.
					th.Now()
					m.Kernel().Replicate(va.Page(), mesh.NodeID(node), nil)
				}
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	d := kernelOpsDigest{
		Copies: make([][]mesh.NodeID, fuzzPages),
		Image:  make([][]memory.Word, fuzzPages),
	}
	for pg := 0; pg < fuzzPages; pg++ {
		d.Copies[pg] = m.Kernel().CopyNodes(bases[pg].Page())
		img := make([]memory.Word, memory.PageWords)
		for off := range img {
			img[off] = m.Peek(bases[pg] + memory.VAddr(off))
		}
		d.Image[pg] = img
	}
	if n := cfg.Observe.EventCount(); n > 1<<15 {
		t.Fatalf("shards=%d: %d events overflow the ring", shards, n)
	}
	for ev := range cfg.Observe.All() {
		d.Events = append(d.Events, ev.String())
	}
	return d
}

// TestShardKernelOpsAtBarriers pins runtime Replicate issued mid-run:
// it lands as barrier work at every shard count, every run ends
// coherent, and K=2, 4 and 8 produce exactly K=1's copy-lists (same
// nodes, same path-length order), memory image and event stream, with
// link contention and without. What barrier replay schedules draws its
// keys from the one barrier counter, not from whichever lane each
// engine last dispatched.
func TestShardKernelOpsAtBarriers(t *testing.T) {
	for _, contention := range []bool{false, true} {
		t.Run(fmt.Sprintf("contention=%v", contention), func(t *testing.T) {
			want := runKernelOps(t, 1, contention, 900)
			for pg, list := range want.Copies {
				if len(list) < 2 {
					t.Fatalf("page %d never replicated (copy-list %v) — the test lost its point", pg, list)
				}
			}
			for _, k := range []int{2, 4, 8} {
				got := runKernelOps(t, k, contention, 900)
				if !reflect.DeepEqual(want.Copies, got.Copies) {
					t.Errorf("shards=%d: copy-lists diverged from serial:\n got %v\nwant %v", k, got.Copies, want.Copies)
				}
				if !reflect.DeepEqual(want.Image, got.Image) {
					t.Errorf("shards=%d: final memory image diverged from serial", k)
				}
				if len(got.Events) != len(want.Events) {
					t.Errorf("shards=%d: %d events, serial %d", k, len(got.Events), len(want.Events))
					continue
				}
				for i := range got.Events {
					if got.Events[i] != want.Events[i] {
						t.Errorf("shards=%d: event[%d] = %q, serial %q", k, i, got.Events[i], want.Events[i])
						break
					}
				}
			}
		})
	}
}

// TestKernelOpsSeedSweep runs runKernelOps at one engine over seed
// bases 900–915, with link contention and without. Replications of
// one page overlap there, so a new copy may be linked next to one whose
// own page copy is still travelling; every run must still end with
// its copies coherent (Run checks that after quiescence).
func TestKernelOpsSeedSweep(t *testing.T) {
	for _, contention := range []bool{false, true} {
		for base := int64(900); base <= 915; base++ {
			t.Run(fmt.Sprintf("contention=%v/base=%d", contention, base), func(t *testing.T) {
				runKernelOps(t, 1, contention, base)
			})
		}
	}
}

// runBarrierReplicate builds a 4x4 machine with link contention on,
// homes one page on node 8 with a non-zero word, and has a thread on
// node 9 replicate it onto node 9 and then compute for computeAfter
// cycles. On two shards, node 9's request lands at a barrier, and the
// page copy the splice sends is a contended send made during barrier
// work. It returns the page's copy-list and image.
func runBarrierReplicate(t *testing.T, shards int, computeAfter sim.Cycles) kernelOpsDigest {
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
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run(shards=%d, compute=%d): %v", shards, computeAfter, err)
	}
	img := make([]memory.Word, memory.PageWords)
	for off := range img {
		img[off] = m.Peek(va + memory.VAddr(off))
	}
	return kernelOpsDigest{
		Copies: [][]mesh.NodeID{m.Kernel().CopyNodes(va.Page())},
		Image:  [][]memory.Word{img},
	}
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
			got := runBarrierReplicate(t, 2, compute)
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("shards=2 copy-list %v diverged from serial %v (or the image did)",
					got.Copies[0], serial.Copies[0])
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
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("two engines recorded\n%v\none engine\n%v", got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("two engines recorded %d events, one engine %d", len(got), len(want))
	}
}

// twoRunDigest is what two Runs of one machine show: the machine clock
// and elapsed cycles after each Run, every thread's clock after every
// operation, and the observed event stream.
type twoRunDigest struct {
	Now     []sim.Cycles
	Elapsed []sim.Cycles
	Logs    [][]uint64
	Events  []string
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
	if n := cfg.Observe.EventCount(); n > 1<<13 {
		t.Fatalf("shards=%d: %d events overflow the ring", shards, n)
	}
	for ev := range cfg.Observe.All() {
		d.Events = append(d.Events, ev.String())
	}
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
		if len(got.Events) != len(serial.Events) {
			t.Errorf("shards=%d: %d events, serial %d", k, len(got.Events), len(serial.Events))
			continue
		}
		for i := range got.Events {
			if got.Events[i] != serial.Events[i] {
				t.Errorf("shards=%d: event[%d] = %q, serial %q", k, i, got.Events[i], serial.Events[i])
				break
			}
		}
	}
}

// overlapCrashes takes down two holders of one page at once: nodes 4
// and 7 both hold page 4 of runRandom's layout, whose third copy is on
// node 11.
var overlapCrashes = []mesh.CrashEvent{{Node: 4, At: 2500, Duration: 6000}, {Node: 7, At: 2600, Duration: 3000}}

// TestOverlappingOutagesConverge runs overlapCrashes over thirty seeds.
// Node 7's restart fails it over while node 4 is still down and
// undetected, so a resync or a rejoin that took node 4 as its source
// would copy a stale, silent frame, and node 4's later failover would
// promote a copy that never received data: the page would converge to
// an empty frame. The program modifies a few hundred of the page's
// words, so most must still hold their initial values. Seed 1 also
// pins the transport's pair incarnations: a message sent to node 7
// before its failover and delivered after its restart must not pass
// for the new pair's first.
func TestOverlappingOutagesConverge(t *testing.T) {
	leg := fuzzLeg{name: "overlap", batch: 1, faults: mesh.FaultConfig{Crashes: overlapCrashes},
		mods: []func(*core.Config){func(c *core.Config) { c.NetContention = true }}}
	for seed := int64(1); seed <= 30; seed++ {
		d := runRandom(t, 1, seed, leg)
		kept := 0
		for off, w := range d.Image[4] {
			if w == memory.Word(uint32(4*memory.PageWords+off)) {
				kept++
			}
		}
		if kept < memory.PageWords/2 {
			t.Fatalf("seed %d: only %d of page 4's words kept their initial values", seed, kept)
		}
	}
}

// fnSink is the tests' event sink: each event runs the func() it
// carries as data.
type fnSink struct{}

func (fnSink) HandleEvent(_ int, data any) { data.(func())() }

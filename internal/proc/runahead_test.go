package proc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"plus/internal/coherence"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// A generated program is a list of Thread calls, fixed before the run,
// so that both ways of running it make the same calls.
type gkind int

const (
	gCompute gkind = iota
	gRead
	gReadSync
	gWrite
	gWriteSync
	gFence
	gIssue
	gSyncOp
	gVerify
	gTryVerify
	gBeginIdle
	gEndIdle
	gIdleUntil
	gWake
	gSleep
	gNow
	nGKinds
)

type gop struct {
	kind gkind
	op   coherence.Op
	a    int // word index, cycles, target thread or handle index
	v    uint32
}

// raLeg is one machine the programs run on.
type raLeg struct {
	mode  proc.Mode
	crash bool
	fence bool // FenceOnSync
	seed  int64
}

const (
	raNodes      = 4 // a 2×2 mesh
	raPerNode    = 2 // threads per node
	raOps        = 90
	raDelayedOps = 3 // a small delayed-operations cache, so it fills
)

var raRMWOps = []coherence.Op{
	coherence.OpFadd, coherence.OpXchng, coherence.OpCondXchng, coherence.OpFetchSet,
	coherence.OpMinXchng, coherence.OpDelayedRead, coherence.OpQueue, coherence.OpDequeue,
}

// genProgram draws thread i's program. Every thread wakes its
// same-node partner once and sleeps once, the wake first, so each
// Sleep has a Wake that no Sleep can hold back; other wakes go to any
// thread. BeginIdle/EndIdle brackets stay balanced.
func genProgram(rng *rand.Rand, i int) []gop {
	var prog []gop
	wakeAt := rng.Intn(raOps / 2)
	sleepAt := wakeAt + 1 + rng.Intn(raOps/2)
	partner := i ^ 1
	depth := 0
	for n := 0; n < raOps; n++ {
		switch n {
		case wakeAt:
			prog = append(prog, gop{kind: gWake, a: partner})
			continue
		case sleepAt:
			prog = append(prog, gop{kind: gSleep})
			continue
		}
		k := gkind(rng.Intn(int(nGKinds)))
		g := gop{kind: k, a: rng.Intn(64), v: rng.Uint32() & 0x7fffffff}
		switch k {
		case gCompute:
			g.a = rng.Intn(60)
		case gIssue, gSyncOp:
			g.op = raRMWOps[rng.Intn(len(raRMWOps))]
		case gBeginIdle:
			depth++
		case gEndIdle:
			if depth == 0 {
				g.kind = gBeginIdle
				depth++
			} else {
				depth--
			}
		case gIdleUntil:
			g.a = rng.Intn(12000)
		case gWake:
			g.a = rng.Intn(raNodes * raPerNode)
		case gSleep:
			g.kind = gFence // the one Sleep is at sleepAt
		}
		prog = append(prog, g)
	}
	for ; depth > 0; depth-- {
		prog = append(prog, gop{kind: gEndIdle})
	}
	return prog
}

// syncOp runs op as its *Sync wrapper, or as the Verify(Issue(...))
// pair where it has none.
func syncOp(th *proc.Thread, op coherence.Op, va memory.VAddr, v memory.Word) memory.Word {
	switch op {
	case coherence.OpFadd:
		return th.FaddSync(va, int32(v))
	case coherence.OpXchng:
		return th.XchngSync(va, v)
	case coherence.OpFetchSet:
		return th.FetchSetSync(va)
	case coherence.OpMinXchng:
		return th.MinXchngSync(va, v)
	case coherence.OpQueue:
		return th.EnqueueSync(va, v)
	case coherence.OpDequeue:
		return th.DequeueSync(va)
	}
	return th.Verify(th.Issue(op, va, v))
}

// raRun is everything one run shows.
type raRun struct {
	elapsed sim.Cycles
	report  string
	nodes   []stats.Node
	crash   stats.CrashBlock
	events  []stats.Event
	results [][]uint64
	image   []memory.Word
	reached uint32
	resumes int
	// unordered counts Verifies of a handle other than the thread's
	// oldest: the tickets resolve out of issue order.
	unordered int
}

// runPrograms runs the leg's programs, each call followed by t.Now()
// when synced — which parks the body after every call, as bodies did
// before they ran ahead.
func runPrograms(t *testing.T, leg raLeg, synced bool) raRun {
	t.Helper()
	cfg := core.DefaultConfig(2, 2)
	cfg.Mode = leg.mode
	cfg.SwitchCost = 40
	cfg.FenceOnSync = leg.fence
	cfg.Timing.MaxDelayedOps = raDelayedOps
	obs := stats.NewObserver(stats.ObserveConfig{Events: 1 << 17, DataAccess: true})
	cfg.Observe = obs
	if leg.crash {
		cfg.Faults.Crashes = []mesh.CrashEvent{{Node: 3, At: 1500, Duration: 2500}}
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pages: one replicated onto the node that crashes, one mastered
	// there with a replica (failed over), one unreplicated, and a
	// queue page whose control words sit above the wrap range.
	pages := []memory.VAddr{m.Alloc(0, 1), m.Alloc(3, 1), m.Alloc(1, 1)}
	m.Replicate(pages[0], 3)
	m.Replicate(pages[1], 2)
	queue := m.Alloc(2, 1)
	qp := queue + memory.VAddr(timing.MaxQueueSize)
	word := func(g gop) memory.VAddr { return pages[g.a%len(pages)] + memory.VAddr(g.a) }

	rng := rand.New(rand.NewSource(leg.seed))
	nthreads := raNodes * raPerNode
	progs := make([][]gop, nthreads)
	for i := range progs {
		progs[i] = genProgram(rng, i)
	}
	results := make([][]uint64, nthreads)
	unordered := make([]int, nthreads)
	threads := make([]*proc.Thread, nthreads)
	for i := range progs {
		i := i
		threads[i] = m.Spawn(mesh.NodeID(i/raPerNode), func(th *proc.Thread) {
			// The node's first thread may hold the whole cache; the
			// others hold one handle at most. A thread holds none while
			// it sleeps. So a full cache always empties.
			limit := 1
			if i%raPerNode == 0 {
				limit = raDelayedOps
			}
			var held []proc.Handle
			out := func(v uint64) { results[i] = append(results[i], v) }
			verify := func(j int) {
				out(uint64(th.Verify(held[j])))
				held = append(held[:j], held[j+1:]...)
			}
			for _, g := range progs[i] {
				switch g.kind {
				case gCompute:
					th.Compute(sim.Cycles(g.a))
				case gRead:
					out(uint64(th.Read(word(g))))
				case gReadSync:
					out(uint64(th.ReadSync(word(g))))
				case gWrite:
					th.Write(word(g), memory.Word(g.v))
				case gWriteSync:
					th.WriteSync(word(g), memory.Word(g.v))
				case gFence:
					th.Fence()
				case gIssue, gSyncOp:
					va := word(g)
					switch g.op {
					case coherence.OpQueue:
						va = qp
					case coherence.OpDequeue:
						va = qp + 1
					}
					if len(held) == limit {
						verify(0)
					}
					if g.kind == gSyncOp {
						out(uint64(syncOp(th, g.op, va, memory.Word(g.v))))
						break
					}
					held = append(held, th.Issue(g.op, va, memory.Word(g.v)))
				case gVerify:
					if len(held) > 0 {
						if j := g.a % len(held); j > 0 {
							unordered[i]++
							verify(j)
						} else {
							verify(0)
						}
					}
				case gTryVerify:
					if len(held) > 0 {
						j := g.a % len(held)
						v, ok := th.TryVerify(held[j])
						if ok {
							held = append(held[:j], held[j+1:]...)
							out(uint64(v))
						} else {
							out(1 << 40)
						}
					}
				case gBeginIdle:
					th.BeginIdle()
				case gEndIdle:
					th.EndIdle()
				case gIdleUntil:
					out(uint64(th.IdleUntil(sim.Cycles(g.a))))
				case gWake:
					th.Wake(threads[g.a])
				case gSleep:
					for len(held) > 0 {
						verify(0)
					}
					th.Sleep()
				case gNow:
					out(uint64(th.Now()))
				}
				if synced {
					th.Now()
				}
			}
			for len(held) > 0 {
				verify(0)
			}
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := raRun{
		elapsed: elapsed,
		report:  m.Stats().Report(elapsed),
		nodes:   append([]stats.Node(nil), m.Stats().Nodes...),
		crash:   m.Stats().Crash(),
		events:  slices.Collect(obs.All()),
		results: results,
	}
	if obs.Overwritten() != 0 {
		t.Fatalf("%+v: the event ring overflowed", leg)
	}
	for _, base := range append(pages, queue) {
		for off := 0; off < 64; off++ {
			r.image = append(r.image, m.Peek(base+memory.VAddr(off)))
		}
	}
	for _, th := range threads {
		if !th.Done() {
			t.Fatalf("%+v: thread %d did not finish", leg, th.ID())
		}
		r.reached |= th.Reached()
		r.resumes += th.Resumes()
		r.unordered += unordered[th.ID()]
	}
	return r
}

// fullCacheStalls counts the delayed reads that stalled for a
// delayed-operations cache slot: a DelayedRead needs no pending-writes
// entry, so its hand-off stalls only on a full cache. Each thread's
// EvStallEnd of class StallWrite is followed by its EvAccRMW then.
func fullCacheStalls(events []stats.Event) int {
	n := 0
	stalled := map[uint64]bool{} // by thread: its write-class stall just ended
	for _, e := range events {
		switch e.Kind {
		case stats.EvStallEnd:
			stalled[e.A] = e.Sub == stats.StallWrite
		case stats.EvAccRMW:
			if stalled[e.B>>32] && coherence.Op(e.Sub) == coherence.OpDelayedRead {
				n++
			}
			stalled[e.B>>32] = false
		case stats.EvAccWrite:
			stalled[e.B>>32] = false
		}
	}
	return n
}

// TestRunAheadMatchesParkPerCall is the differential test for bodies
// that run ahead: seeded random programs over every Thread call run
// as written, where the body parks only for a value, and again with
// t.Now() after every call, where it parks after each one. Both
// processor modes, with and without a crash of one node, must give the
// same event stream, counters, stats report, memory image and results.
// Together the runs reach every step.
func TestRunAheadMatchesParkPerCall(t *testing.T) {
	var reached uint32
	var unordered, fullStalls int
	for seed := int64(1); seed <= 4; seed++ {
		for _, mode := range []proc.Mode{proc.RunToBlock, proc.SwitchOnSync} {
			for _, crash := range []bool{false, true} {
				leg := raLeg{mode: mode, crash: crash, fence: seed%2 == 0, seed: seed}
				name := fmt.Sprintf("seed=%d mode=%d crash=%v fence=%v", leg.seed, leg.mode, leg.crash, leg.fence)
				ahead := runPrograms(t, leg, false)
				parked := runPrograms(t, leg, true)
				if ahead.elapsed != parked.elapsed {
					t.Errorf("%s: elapsed %d running ahead, %d parked", name, ahead.elapsed, parked.elapsed)
				}
				if ahead.report != parked.report {
					t.Errorf("%s: stats reports differ:\n%s\nvs\n%s", name, ahead.report, parked.report)
				}
				if !reflect.DeepEqual(ahead.nodes, parked.nodes) {
					t.Errorf("%s: node counters differ", name)
				}
				if ahead.crash != parked.crash {
					t.Errorf("%s: crash counters differ: %+v vs %+v", name, ahead.crash, parked.crash)
				}
				if !reflect.DeepEqual(ahead.results, parked.results) {
					t.Errorf("%s: results differ", name)
				}
				if !reflect.DeepEqual(ahead.image, parked.image) {
					t.Errorf("%s: memory images differ", name)
				}
				if len(ahead.events) != len(parked.events) {
					t.Errorf("%s: %d events running ahead, %d parked", name, len(ahead.events), len(parked.events))
				}
				for i := range min(len(ahead.events), len(parked.events)) {
					if ahead.events[i] != parked.events[i] {
						t.Errorf("%s: event %d differs:\n  ahead  %v\n  parked %v", name, i, ahead.events[i], parked.events[i])
						break
					}
				}
				if ahead.resumes >= parked.resumes {
					t.Errorf("%s: %d resumes running ahead, want fewer than parked's %d", name, ahead.resumes, parked.resumes)
				}
				if crash && (ahead.crash.Crashes != 1 || ahead.crash.Restarts != 1 || ahead.elapsed < 4000) {
					t.Errorf("%s: the outage did not fall inside the run: %+v, elapsed %d", name, ahead.crash, ahead.elapsed)
				}
				reached |= ahead.reached
				unordered += ahead.unordered
				fullStalls += fullCacheStalls(ahead.events)
			}
		}
	}
	t.Logf("%d out-of-order verifies, %d full-cache stalls", unordered, fullStalls)
	if unordered == 0 || fullStalls == 0 {
		t.Errorf("%d out-of-order verifies and %d stalls on a full delayed-operations cache, want some of each", unordered, fullStalls)
	}
	for s := 0; s < proc.NSteps; s++ {
		if reached&(1<<s) == 0 {
			t.Errorf("no run reached step %d", s)
		}
	}
}

package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestShardSetOneEngineQuiescent pins the one-engine run loop: it runs
// the same lookahead rounds as several engines do, so the Quiescent
// hook fires only at barriers — never from inside a dispatch, a
// coroutine's slices included — at the same instants as a two-engine
// split of the same program, and each engine dispatches only its own
// events. A set without a window panics at one engine as at several.
func TestShardSetOneEngineQuiescent(t *testing.T) {
	run := func(k int) (quiet []Cycles, dispatched []uint64) {
		engines := make([]*Engine, k)
		for i := range engines {
			engines[i] = NewEngine()
		}
		for i := 0; i < 2; i++ {
			e := engines[i%k]
			co := NewCoroutine(e, "co", func(co *Coroutine) {
				for n := 0; n < 5; n++ {
					co.WaitCycles(Cycles(3 + n))
				}
			})
			co.WakeAfter(Cycles(i))
		}
		runAfter(engines[k-1], 70, func() {})
		ss := &ShardSet{Engines: engines, Window: 12, Quiescent: func(at Cycles) {
			for _, e := range engines {
				if e.InRound() {
					t.Errorf("K=%d: quiescent at %d inside a round", k, at)
				}
			}
			quiet = append(quiet, at)
		}}
		ss.Run()
		if uint64(len(quiet)) != ss.Stats.Rounds+1 {
			t.Errorf("K=%d: quiescent fired %d times over %d rounds, want once per barrier", k, len(quiet), ss.Stats.Rounds)
		}
		for _, e := range engines {
			dispatched = append(dispatched, e.Processed())
		}
		return quiet, dispatched
	}
	one, n1 := run(1)
	if want := []uint64{13}; !slices.Equal(n1, want) {
		t.Fatalf("one engine dispatched %v events, want %v", n1, want)
	}
	two, n2 := run(2)
	if !slices.Equal(one, two) {
		t.Fatalf("quiescent points %v on one engine, %v on two", one, two)
	}
	if want := []uint64{6, 7}; !slices.Equal(n2, want) {
		t.Fatalf("two engines dispatched %v events, want %v", n2, want)
	}
	if want := []Cycles{0, 8, 19, 26, 70}; !slices.Equal(one, want) {
		t.Fatalf("quiescent points %v, want %v", one, want)
	}
	defer func() {
		if got := recover(); got != "sim: shard window 0 < 1" {
			t.Fatalf("one engine without a window: recovered %v, want the window panic", got)
		}
	}()
	e := NewEngine()
	runAfter(e, 1, func() {})
	(&ShardSet{Engines: []*Engine{e}}).Run()
}

// TestShardSetBarrierQuiescent pins the multi-engine run loop: the
// Quiescent hook fires once per barrier, after Drain, with the latest
// real activity across the engines, and the last call sees the run's
// final activity. After the run every engine's clock stands at that
// activity, as one engine's would, not at the last round's horizon.
func TestShardSetBarrierQuiescent(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	runAfter(a, 5, func() {})
	runAfter(b, 40, func() {})
	drained := 0
	var seen []Cycles
	ss := &ShardSet{
		Engines: []*Engine{a, b},
		Window:  12,
		Drain:   func() int { drained++; return 0 },
		Quiescent: func(at Cycles) {
			if len(seen) != drained-1 {
				t.Fatalf("quiescent before drain (%d calls, %d drains)", len(seen), drained)
			}
			seen = append(seen, at)
		},
	}
	ss.Run()
	if len(seen) != drained || seen[len(seen)-1] != 40 || ss.LastActivityAt() != 40 {
		t.Fatalf("quiescent points %v over %d barriers, last activity %d; want the last at 40",
			seen, drained, ss.LastActivityAt())
	}
	if a.Now() != 40 || b.Now() != 40 {
		t.Fatalf("clocks %d and %d after the run, want both at the last activity, 40", a.Now(), b.Now())
	}
}

// TestShardSetDefer pins Engine.Defer: outside a round a deferred call
// runs at once; inside a round, on one engine as on several, it waits
// for the barrier, where every engine's calls replay in dispatch order
// before Drain, and a call deferred by a replayed call runs at once.
func TestShardSetDefer(t *testing.T) {
	var log []string
	note := func(s string) func() { return func() { log = append(log, s) } }
	idle := NewEngine()
	idle.Defer(fnSink{}, 0, note("idle"))
	if got, want := strings.Join(log, " "), "idle"; got != want {
		t.Fatalf("outside a round: %q, want %q", got, want)
	}

	for _, k := range []int{1, 2} {
		log = nil
		engines := []*Engine{NewEngine(), NewEngine()}[:k]
		a, b := engines[0], engines[k-1]
		runAfter(a, 5, func() { a.Defer(fnSink{}, 0, note("a5")) })
		runAfter(b, 3, func() {
			b.Defer(fnSink{}, 0, func() {
				log = append(log, "b3")
				b.Defer(fnSink{}, 0, note("b3-nested"))
			})
			log = append(log, "b3-live")
		})
		ss := &ShardSet{
			Engines: engines,
			Window:  12,
			Drain:   func() int { log = append(log, "barrier"); return 0 },
		}
		ss.Run()
		if got, want := strings.Join(log, " "), "barrier b3-live b3 b3-nested a5 barrier"; got != want {
			t.Fatalf("%d engines: %q, want %q", k, got, want)
		}
	}
}

// TestShardSetDeferAfterSmallerKeyedChild pins where a same-cycle
// event scheduled under a smaller key than its parent files its
// deferred calls: under the parent's key, since it runs right after
// the parent. At cycle 5, W (lane 4) defers "W", and X (lane 8) defers
// nothing but schedules Y on lane 1, which defers "Y". One engine runs
// W, X, Y; with X and Y on one engine and W on another, the barrier
// must still replay W's call first.
func TestShardSetDeferAfterSmallerKeyedChild(t *testing.T) {
	for _, k := range []int{1, 2} {
		var log []string
		engines := []*Engine{NewEngine(), NewEngine()}[:k]
		a, b := engines[0], engines[k-1]
		note := func(e *Engine, s string) func() {
			return func() { e.Defer(fnSink{}, 0, func() { log = append(log, s) }) }
		}
		b.SetLane(4)
		runAt(b, 5, note(b, "W"))
		a.SetLane(8)
		runAt(a, 5, func() {
			a.SetLane(1)
			runAfter(a, 0, note(a, "Y"))
		})
		(&ShardSet{Engines: engines, Window: 12}).Run()
		if got := strings.Join(log, " "); got != "W Y" {
			t.Errorf("%d engines replayed %q, want \"W Y\"", k, got)
		}
	}
}

// TestShardSetDeferFiledPerRound pins that the filing key restarts
// each round. X, dispatched at 11 on lane 8 at the first round's
// horizon, defers a call that, replayed at the barrier, schedules Z on
// a and then B on b at zero delay, under the barrier lane's keys, which
// sort below X's. One engine runs Z then B; with B on another engine,
// Z's call must not be filed under X's key, which B's would beat.
func TestShardSetDeferFiledPerRound(t *testing.T) {
	for _, k := range []int{1, 2} {
		var log []string
		engines := []*Engine{NewEngine(), NewEngine()}[:k]
		a, b := engines[0], engines[k-1]
		note := func(e *Engine, s string) func() {
			return func() { e.Defer(fnSink{}, 0, func() { log = append(log, s) }) }
		}
		runAt(a, 0, func() {})
		a.SetLane(8)
		runAt(a, 11, func() {
			a.Defer(fnSink{}, 0, func() {
				runAfter(a, 0, note(a, "Z"))
				runAfter(b, 0, note(b, "B"))
			})
		})
		(&ShardSet{Engines: engines, Window: 12}).Run()
		if got := strings.Join(log, " "); got != "Z B" {
			t.Errorf("%d engines replayed %q, want \"Z B\"", k, got)
		}
	}
}

// TestShardSetReplayKeys pins the keys barrier replay draws: whichever
// engine a replayed call schedules on, and whatever lane that engine
// last dispatched, the key comes from the set's one counter under
// BarrierLane, in replay order, and the counter carries across
// barriers. An event keyed so dispatches as machine-level activity
// (NoLane). One engine running the same program draws the same keys.
func TestShardSetReplayKeys(t *testing.T) {
	// got[i] logs what engine i dispatched; each engine's goroutine
	// writes only its own log.
	got := make([][]key, 2)
	a, b := NewEngine(), NewEngine()
	engines := []*Engine{a, b}
	scheduleOn := func(is ...int) func() {
		return func() {
			for _, i := range is {
				e := engines[i]
				runAfter(e, 20, func() {
					if e.Lane() != NoLane {
						t.Errorf("engine %d dispatched %+v on lane %d, want NoLane", i, dispatched(e), e.Lane())
					}
					got[i] = append(got[i], dispatched(e))
				})
			}
		}
	}
	a.SetLane(4)
	runAfter(a, 5, func() { a.Defer(fnSink{}, 0, scheduleOn(0, 1)) })
	b.SetLane(9)
	runAfter(b, 3, func() { b.Defer(fnSink{}, 0, scheduleOn(1)) })
	runAfter(b, 60, func() { b.Defer(fnSink{}, 0, scheduleOn(0)) })
	ss := &ShardSet{Engines: engines, Window: 12}
	ss.Run()
	// The first round ends at 3+12-1 = 14, and its barrier replays b's
	// call (filed at 3) before a's (at 5): b's event draws 0, then a's
	// 1 and b's 2, all due at 34. The round from 60 ends at 71, and its
	// barrier draws 3 for a's event at 91.
	wantA := []key{keyOf(34, BarrierLane, 1), keyOf(91, BarrierLane, 3)}
	wantB := []key{keyOf(34, BarrierLane, 0), keyOf(34, BarrierLane, 2)}
	if !slices.Equal(got[0], wantA) || !slices.Equal(got[1], wantB) {
		t.Fatalf("engines dispatched %+v and %+v, want %+v and %+v", got[0], got[1], wantA, wantB)
	}
	if ss.Stats.Replayed != 3 {
		t.Fatalf("%d calls replayed, want 3", ss.Stats.Replayed)
	}

	// One engine running both engines' events defers the same calls
	// and replays them in the same order, so it draws the same keys.
	one := NewEngine()
	engines = []*Engine{one, one}
	got[0], got[1] = nil, nil
	one.SetLane(4)
	runAfter(one, 5, func() { one.Defer(fnSink{}, 0, scheduleOn(0, 1)) })
	one.SetLane(9)
	runAfter(one, 3, func() { one.Defer(fnSink{}, 0, scheduleOn(1)) })
	runAfter(one, 60, func() { one.Defer(fnSink{}, 0, scheduleOn(0)) })
	(&ShardSet{Engines: []*Engine{one}, Window: 12}).Run()
	if !slices.Equal(got[0], wantA) || !slices.Equal(got[1], wantB) {
		t.Fatalf("one engine dispatched %+v and %+v, want %+v and %+v", got[0], got[1], wantA, wantB)
	}
}

// panicSink panics when its event fires.
type panicSink struct{}

func (panicSink) HandleEvent(int, any) { panic("shard boom") }

// TestShardSetPanicKeepsStack pins that a panic on one engine reaches
// Run's caller unrecovered, its stack intact: debug.Stack at the
// caller's recover still shows the sink that panicked.
func TestShardSetPanicKeepsStack(t *testing.T) {
	var stack string
	func() {
		e := NewEngine()
		runAfter(e, 4, func() {})
		e.ScheduleEvent(6, panicSink{}, 0, nil)
		defer func() {
			if got := recover(); got != "shard boom" {
				t.Fatalf("recovered %v, want the sink's panic", got)
			}
			stack = string(debug.Stack())
		}()
		(&ShardSet{Engines: []*Engine{e}, Window: 12}).Run()
	}()
	if !strings.Contains(stack, "panicSink.HandleEvent") {
		t.Fatalf("the stack at recover lost the panicking sink:\n%s", stack)
	}
}

// TestShardSetPanicSurfacesAtRun pins that a panic on one of several
// engines, in a sink or in a coroutine, is recoverable at ShardSet.Run
// as it is on one engine, rather than killing the process from a
// worker goroutine.
func TestShardSetPanicSurfacesAtRun(t *testing.T) {
	run := func(arm func(b *Engine)) (got any) {
		a, b := NewEngine(), NewEngine()
		runAfter(a, 4, func() {})
		arm(b)
		defer func() { got = recover() }()
		(&ShardSet{Engines: []*Engine{a, b}, Window: 12}).Run()
		return nil
	}
	if got := run(func(b *Engine) { b.ScheduleEvent(6, panicSink{}, 0, nil) }); got != "shard boom" {
		t.Fatalf("sink: recovered %v, want the sink's panic", got)
	}
	got := run(func(b *Engine) { NewCoroutine(b, "victim", explode).WakeAfter(6) })
	if p, ok := got.(*CoroutinePanic); !ok || p.Label != "victim" || p.Value != "boom" {
		t.Fatalf("coroutine: recovered %v, want the body's panic", got)
	}
}

// TestShardSetInjectOrder pins barrier injection against both halves
// of the queue at K=2. Engine a sends cross-shard mail in-round; the
// barrier's Drain injects it into b, one event due within the wheel's
// span of b's clock and one beyond it, in the overflow heap. Each lands
// on a cycle where b also holds locally scheduled events on lanes on
// either side of the injected one, and b must dispatch all of them in
// (at, lane, seq) order.
func TestShardSetInjectOrder(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	near, far := Cycles(17), Cycles(5+3*wheelSize)
	var got []key
	record := func() { got = append(got, dispatched(b)) }
	for _, lane := range []int32{5, 1} {
		b.SetLane(lane)
		runAt(b, near, record)
	}
	b.SetLane(7)
	runAt(b, far-20, func() {
		for _, lane := range []int32{4, 0} {
			b.SetLane(lane)
			runAt(b, far, record)
		}
	})
	type mail struct {
		key
		overflow bool // where the event must land in b's queue
	}
	var sent []mail
	runAfter(a, 5, func() {
		sent = append(sent, mail{keyOf(near, 3, 100), false}, mail{keyOf(far, 2, 101), true})
	})
	runAfter(a, far-100, func() { sent = append(sent, mail{keyOf(far, 3, 102), false}) })
	ss := &ShardSet{
		Engines: []*Engine{a, b},
		Window:  12,
		Drain: func() int {
			for _, m := range sent {
				before := len(b.q.overflow)
				b.InjectEventAt(m.at, laneOf(m.tie), seqOf(m.tie), fnSink{}, 0, record)
				if landed := len(b.q.overflow) > before; landed != m.overflow {
					t.Fatalf("%+v injected at now %d: in overflow %v, want %v", m.key, b.Now(), landed, m.overflow)
				}
			}
			n := len(sent)
			sent = sent[:0]
			return n
		},
	}
	ss.Run()
	want := []key{
		keyOf(near, 1, 0), keyOf(near, 3, 100), keyOf(near, 5, 0),
		keyOf(far, 0, 0), keyOf(far, 2, 101), keyOf(far, 3, 102), keyOf(far, 4, 0),
	}
	if len(got) != len(want) {
		t.Fatalf("dispatched %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %+v, want %+v", got, want)
		}
	}
}

// TestShardSetWorkersExit pins that Run leaves no goroutine behind:
// after a normal multi-engine run and after one whose round panics —
// on a worker, or on engine 0 while the workers still run the round —
// the goroutine count returns to its baseline and no shard goroutine
// is counted busy, so no worker is left polling or parked.
func TestShardSetWorkersExit(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after %s: %d goroutines, baseline %d", what, n, base)
		}
		if n := busyShards.Load(); n != 0 {
			t.Fatalf("after %s: %d shard goroutines counted busy", what, n)
		}
	}
	engines := func(arm func([]*Engine)) []*Engine {
		es := make([]*Engine, 4)
		for i := range es {
			es[i] = NewEngine()
			for at := Cycles(1); at < 200; at += Cycles(3 + i) {
				runAt(es[i], at, func() {})
			}
		}
		arm(es)
		return es
	}
	(&ShardSet{Engines: engines(func([]*Engine) {}), Window: 5}).Run()
	settled("a normal run")
	for _, i := range []int{2, 0} {
		func() {
			defer func() {
				if got := recover(); got != "shard boom" {
					t.Fatalf("recovered %v, want engine %d's panic", got, i)
				}
			}()
			(&ShardSet{Engines: engines(func(es []*Engine) { es[i].ScheduleEvent(50, panicSink{}, 0, nil) }), Window: 5}).Run()
		}()
		settled(fmt.Sprintf("a run panicking on engine %d", i))
	}
}

// ringNode is one node of the oversubscription test's program: every
// event mixes the node's state with the event's key. A tick (kind 0)
// also schedules the node's next tick and, every other tick, sends a
// message (kind 1) to another node at least a window ahead — into its
// own engine's queue, or through the sender's outbox to the next
// barrier's Drain.
type ringNode struct {
	id    int32
	left  int
	state uint64
	net   *ringNet
}

// ringNet holds a ring program on K engines: which engine owns each
// node, one outbox per engine (written only by that engine's worker),
// and one dispatch log per engine.
type ringNet struct {
	window  Cycles
	nodes   []*ringNode
	engines []*Engine
	owner   []int
	outbox  [][]ringMail
	log     [][]ringRecord
}

type ringMail struct {
	at   Cycles
	lane int32
	seq  uint64
	to   int32
}

type ringRecord struct {
	key
	node  int32
	state uint64
}

func (n *ringNode) HandleEvent(kind int, _ any) {
	r := n.net
	src := r.owner[n.id]
	e := r.engines[src]
	k := dispatched(e)
	n.state = n.state*1000003 + uint64(k.at)*31 + seqOf(k.tie)
	r.log[src] = append(r.log[src], ringRecord{k, n.id, n.state})
	if kind == 1 {
		return
	}
	n.left--
	if n.left <= 0 {
		return
	}
	e.ScheduleEvent(1+Cycles(n.state%3), n, 0, nil)
	if n.left%2 == 0 {
		to := int32((uint64(n.id) + 1 + n.state%7) % uint64(len(r.nodes)))
		at := e.Now() + r.window + Cycles(n.state%5)
		if dst := r.owner[to]; dst == src {
			e.ScheduleEventAt(at, r.nodes[to], 1, nil)
		} else {
			lane, seq := e.DrawKey()
			r.outbox[src] = append(r.outbox[src], ringMail{at, lane, seq, to})
		}
	}
}

// runRing runs the ring program — nodes in contiguous bands over k
// engines — and returns its dispatches sorted by key, with the round
// count.
func runRing(k int) ([]ringRecord, uint64) {
	const nodes, events, window = 16, 1200, 4
	r := &ringNet{window: window, owner: make([]int, nodes), outbox: make([][]ringMail, k), log: make([][]ringRecord, k)}
	for i := 0; i < k; i++ {
		r.engines = append(r.engines, NewEngine())
	}
	for i := 0; i < nodes; i++ {
		r.owner[i] = i * k / nodes
		n := &ringNode{id: int32(i), left: events, net: r}
		r.nodes = append(r.nodes, n)
		e := r.engines[r.owner[i]]
		e.SetLane(int32(i))
		e.ScheduleEvent(Cycles(i%3), n, 0, nil)
	}
	ss := &ShardSet{Engines: r.engines, Window: window, Drain: func() int {
		moved := 0
		for src, box := range r.outbox {
			for _, m := range box {
				r.engines[r.owner[m.to]].InjectEventAt(m.at, m.lane, m.seq, r.nodes[m.to], 1, nil)
			}
			moved += len(box)
			r.outbox[src] = box[:0]
		}
		return moved
	}}
	ss.Run()
	all := slices.Concat(r.log...)
	slices.SortFunc(all, func(a, b ringRecord) int {
		if a.key.less(b.key) {
			return -1
		}
		if b.key.less(a.key) {
			return 1
		}
		return 0
	})
	return all, ss.Stats.Rounds
}

// TestShardSetOversubscribed runs K=4 and K=8 sets on one CPU
// (GOMAXPROCS 1), where a barrier must hand its CPU over rather than
// poll for a goroutine that cannot run. Each must finish within a
// deadline that a barrier progressing only through the runtime's
// 10 ms preemption of a polling goroutine misses by far (the program
// runs hundreds of rounds), and must dispatch in the same key order,
// with the same node states, as one engine.
func TestShardSetOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, _ := runRing(1)
	for _, k := range []int{4, 8} {
		type result struct {
			log    []ringRecord
			rounds uint64
		}
		done := make(chan result, 1)
		go func() {
			log, rounds := runRing(k)
			done <- result{log, rounds}
		}()
		var got result
		select {
		case got = <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("K=%d on GOMAXPROCS 1 did not finish within 20 s", k)
		}
		if got.rounds < 500 {
			t.Fatalf("K=%d ran %d rounds; the deadline assumes at least 500", k, got.rounds)
		}
		if !slices.Equal(got.log, serial) {
			t.Fatalf("K=%d dispatched %d events, diverging from one engine's %d", k, len(got.log), len(serial))
		}
	}
}

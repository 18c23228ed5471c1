package sim

import (
	"strings"
	"testing"
)

// TestShardSetOneEngineQuiescent pins the single-engine run loop: no
// window is needed, the Quiescent hook fires before every dispatch —
// including the ones a coroutine drives inline from ParkInline — ahead
// of the engine's own dispatch hook, and the engine's hook is restored
// after the run.
func TestShardSetOneEngineQuiescent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.SetOnEvent(func(Cycles, int) { order = append(order, "probe") })
	for i := 0; i < 2; i++ {
		co := NewCoroutine(e, "co", func(co *Coroutine) {
			for k := 0; k < 5; k++ {
				co.WaitCycles(Cycles(3 + k))
			}
		})
		co.WakeAfter(Cycles(i))
	}
	e.Schedule(7, func() {})
	quiet := 0
	ss := &ShardSet{Engines: []*Engine{e}, Quiescent: func(at Cycles) {
		if at != e.Now() {
			t.Errorf("quiescent at %d, engine clock %d", at, e.Now())
		}
		quiet++
		order = append(order, "quiescent")
	}}
	ss.Run()
	if uint64(quiet) != e.Processed() || quiet == 0 {
		t.Fatalf("quiescent fired %d times for %d dispatches", quiet, e.Processed())
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "quiescent" || order[i+1] != "probe" {
			t.Fatalf("hook order at %d: %v, want quiescent before probe", i, order[i:i+2])
		}
	}
	order = order[:0]
	e.Schedule(1, func() {})
	e.Run()
	if len(order) != 1 || order[0] != "probe" {
		t.Fatalf("after Run the engine hook is %v, want the original probe alone", order)
	}
}

// TestShardSetBarrierQuiescent pins the multi-engine run loop: the
// Quiescent hook fires once per barrier, after Drain, with the latest
// real activity across the engines, and the last call sees the run's
// final activity.
func TestShardSetBarrierQuiescent(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	a.Schedule(5, func() {})
	b.Schedule(40, func() {})
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
}

// TestShardSetDefer pins Engine.Defer: on one engine a deferred call
// runs at once; inside a multi-engine round it waits for the barrier,
// where every engine's calls replay in dispatch-tag order before
// BarrierWork, and a call deferred by a replayed call runs at once.
func TestShardSetDefer(t *testing.T) {
	var log []string
	note := func(s string) func() { return func() { log = append(log, s) } }
	one := NewEngine()
	one.Schedule(2, func() {
		one.Defer(funcSink{}, 0, note("deferred"))
		log = append(log, "live")
	})
	(&ShardSet{Engines: []*Engine{one}}).Run()
	if got, want := strings.Join(log, " "), "deferred live"; got != want {
		t.Fatalf("one engine: %q, want %q", got, want)
	}

	log = nil
	a, b := NewEngine(), NewEngine()
	a.Schedule(5, func() { a.Defer(funcSink{}, 0, note("a5")) })
	b.Schedule(3, func() {
		b.Defer(funcSink{}, 0, func() {
			log = append(log, "b3")
			b.Defer(funcSink{}, 0, note("b3-nested"))
		})
		log = append(log, "b3-live")
	})
	ss := &ShardSet{
		Engines:     []*Engine{a, b},
		Window:      12,
		BarrierWork: func() { log = append(log, "barrier") },
	}
	ss.Run()
	if got, want := strings.Join(log, " "), "barrier b3-live b3 b3-nested a5 barrier"; got != want {
		t.Fatalf("two engines: %q, want %q", got, want)
	}
}

// panicSink panics when its event fires.
type panicSink struct{}

func (panicSink) HandleEvent(int, any) { panic("shard boom") }

// TestShardSetPanicSurfacesAtRun pins that a panic on one of several
// engines, in a sink or in a coroutine, is recoverable at ShardSet.Run
// as it is on one engine, rather than killing the process from a
// worker goroutine.
func TestShardSetPanicSurfacesAtRun(t *testing.T) {
	run := func(arm func(b *Engine)) (got any) {
		a, b := NewEngine(), NewEngine()
		a.Schedule(4, func() {})
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
		b.ScheduleAt(near, record)
	}
	b.SetLane(7)
	b.ScheduleAt(far-20, func() {
		for _, lane := range []int32{4, 0} {
			b.SetLane(lane)
			b.ScheduleAt(far, record)
		}
	})
	type mail struct {
		key
		overflow bool // where the event must land in b's queue
	}
	var sent []mail
	a.Schedule(5, func() {
		sent = append(sent, mail{key{near, 3, 100}, false}, mail{key{far, 2, 101}, true})
	})
	a.Schedule(far-100, func() { sent = append(sent, mail{key{far, 3, 102}, false}) })
	ss := &ShardSet{
		Engines: []*Engine{a, b},
		Window:  12,
		Drain: func() int {
			for _, m := range sent {
				before := len(b.q.overflow)
				b.InjectEventAt(m.at, m.lane, m.seq, funcSink{}, 0, record)
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
		{near, 1, 0}, {near, 3, 100}, {near, 5, 0},
		{far, 0, 0}, {far, 2, 101}, {far, 3, 102}, {far, 4, 0},
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

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("empty run moved clock to %d", e.Now())
	}
	if e.Processed() != 0 {
		t.Fatalf("empty run processed %d events", e.Processed())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	// Events at the same time must run in scheduling order.
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order (got %d)", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []Cycles
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.Schedule(7, tick)
		}
	}
	e.Schedule(7, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if want := Cycles(7 * (i + 1)); at != want {
			t.Fatalf("tick %d at %d, want %d", i, at, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events by t=20, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(15) // no-op: clock never moves backward
	if e.Now() != 20 {
		t.Fatalf("clock moved backward to %d", e.Now())
	}
	e.Run()
	if ran != 3 || e.Now() != 30 {
		t.Fatalf("final ran=%d now=%d", ran, e.Now())
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Cycles(i), func() {})
	}
	if n := e.RunLimit(4); n != 4 {
		t.Fatalf("RunLimit executed %d, want 4", n)
	}
	if n := e.RunLimit(100); n != 6 {
		t.Fatalf("RunLimit executed %d, want 6", n)
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the clock ends at the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Cycles
		for _, d := range delays {
			d := Cycles(d)
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var max Cycles
		for _, d := range delays {
			if Cycles(d) > max {
				max = Cycles(d)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an interleaved random schedule is deterministic — two runs
// with the same seed produce identical event traces.
func TestEngineDeterminism(t *testing.T) {
	trace := func(seed int64) []Cycles {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var out []Cycles
		var spawn func(depth int)
		spawn = func(depth int) {
			out = append(out, e.Now())
			if depth < 4 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					e.Schedule(Cycles(rng.Intn(50)), func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			e.Schedule(Cycles(rng.Intn(100)), func() { spawn(0) })
		}
		e.Run()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// dispatched returns the key of the event e is dispatching.
func dispatched(e *Engine) key { return e.cur }

// TestEngineQueueOrderDifferential checks the queue against a plain
// reference: every dispatch must be the smallest (at, lane, seq) key
// among the events pending at that moment. Random schedules mix
// ScheduleEventAt (keys drawn from the engine's lane counters, mirrored
// here) with InjectEventAt (explicit keys), on lanes including NoLane,
// with delays of 0, wheelSize-1, wheelSize and up to 4·wheelSize, so
// events cross between the wheel and the overflow heap and the wheel
// wraps many times. Handlers schedule more events, zero-delay ones
// included (an injected key can sort before the dispatch that made it),
// and RunUntil horizons drag the clock past empty stretches.
func TestEngineQueueOrderDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var pending []key
		draws := map[int32]uint64{}
		injSeq := uint64(1) << 40 // above every drawn seq, so keys stay unique
		scheduled, fired, wrapped := 0, 0, false
		delay := func() Cycles {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return wheelSize - 1
			case 2:
				return wheelSize
			case 3:
				return Cycles(rng.Intn(4*wheelSize + 1))
			default:
				return Cycles(rng.Intn(64))
			}
		}
		var fire func()
		schedule := func() {
			if scheduled == 4000 {
				return
			}
			scheduled++
			at := e.Now() + delay()
			lane := int32(rng.Intn(17)) - 1
			if rng.Intn(3) == 0 {
				e.InjectEventAt(at, lane, injSeq, funcSink{}, 0, fire)
				pending = append(pending, key{at, lane, injSeq})
				injSeq++
				return
			}
			e.SetLane(lane)
			e.ScheduleEventAt(at, funcSink{}, 0, fire)
			pending = append(pending, key{at, lane, draws[lane]})
			draws[lane]++
		}
		fire = func() {
			got := dispatched(e)
			least := 0
			for i := range pending {
				if pending[i].less(pending[least]) {
					least = i
				}
			}
			if want := pending[least]; got != want || got.at != e.Now() {
				t.Fatalf("seed %d dispatch %d: got %+v at now %d, want %+v", seed, fired, got, e.Now(), want)
			}
			pending[least] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			fired++
			wrapped = wrapped || got.at >= 8*wheelSize
			for n := rng.Intn(3); n > 0; n-- {
				schedule()
			}
		}
		for i := 0; i < 64; i++ {
			schedule()
		}
		for e.Pending() > 0 {
			if rng.Intn(2) == 0 {
				e.RunLimit(uint64(rng.Intn(40) + 1))
			} else {
				h := e.Now() + Cycles(rng.Intn(3*wheelSize))
				e.RunUntil(h)
				if e.Now() != h {
					t.Fatalf("seed %d: RunUntil(%d) left the clock at %d", seed, h, e.Now())
				}
				for _, k := range pending {
					if k.at <= h {
						t.Fatalf("seed %d: RunUntil(%d) left %+v pending", seed, h, k)
					}
				}
				for n := rng.Intn(4); n > 0; n-- {
					schedule()
				}
			}
			if e.Pending() != len(pending) {
				t.Fatalf("seed %d: Pending() = %d, reference holds %d", seed, e.Pending(), len(pending))
			}
		}
		if fired != scheduled || !wrapped {
			t.Fatalf("seed %d: fired %d of %d scheduled events (wrapped the wheel: %v)", seed, fired, scheduled, wrapped)
		}
	}
}

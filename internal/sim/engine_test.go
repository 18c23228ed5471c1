package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fnSink is the tests' event sink: each event runs the func() it
// carries as data.
type fnSink struct{}

func (fnSink) HandleEvent(_ int, data any) { data.(func())() }

// runAfter schedules fn on e after delay cycles.
func runAfter(e *Engine, delay Cycles, fn func()) { e.ScheduleEvent(delay, fnSink{}, 0, fn) }

// runAt schedules fn on e at absolute time at.
func runAt(e *Engine, at Cycles, fn func()) { e.ScheduleEventAt(at, fnSink{}, 0, fn) }

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
	runAfter(e, 30, func() { got = append(got, 3) })
	runAfter(e, 10, func() { got = append(got, 1) })
	runAfter(e, 20, func() { got = append(got, 2) })
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
		runAfter(e, 5, func() { got = append(got, i) })
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
			runAfter(e, 7, tick)
		}
	}
	runAfter(e, 7, tick)
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
	runAfter(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		runAt(e, 5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	runAfter(e, 10, func() { ran++ })
	runAfter(e, 20, func() { ran++ })
	runAfter(e, 30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events by t=20, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if at, ok := e.NextEventAt(); !ok || at != 30 || e.Processed() != 2 {
		t.Fatalf("next event at (%d, %v) after %d dispatches, want 30 after 2", at, ok, e.Processed())
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
		runAfter(e, Cycles(i), func() {})
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
			runAfter(e, d, func() { fired = append(fired, d) })
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
					runAfter(e, Cycles(rng.Intn(50)), func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			runAfter(e, Cycles(rng.Intn(100)), func() { spawn(0) })
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

// keyOf returns the queue key of an event at at keyed (lane, seq).
func keyOf(at Cycles, lane int32, seq uint64) key { return key{at, tieOf(lane, seq)} }

func (k key) String() string {
	return fmt.Sprintf("{at:%d lane:%d seq:%d}", k.at, laneOf(k.tie), seqOf(k.tie))
}

// ref is the queue model's view of a pending event: its key
// unpacked, ordered field by field with no help from the engine.
type ref struct {
	at   Cycles
	lane int32
	seq  uint64
}

func (a ref) cmp(b ref) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.lane, b.lane), cmp.Compare(a.seq, b.seq))
}

func (a ref) key() key { return keyOf(a.at, a.lane, a.seq) }

// TestEngineQueueOrderDifferential checks the queue against a model:
// every dispatch must be the smallest (at, lane, seq) among the events
// pending at that moment, compared as three separate fields. Random
// schedules mix ScheduleEventAt (keys drawn from the engine's lane
// counters, mirrored here) with InjectEventAt (foreign keys), on lanes
// from BarrierLane (injected only: no activity draws under it) through
// NoLane and 0 to 4095, the largest node of a 64×64 mesh. Delays are 0,
// wheelSize-1, wheelSize and up to 4·wheelSize, so events cross
// between the wheel and the overflow heap and the wheel wraps many
// times. Handlers schedule more events, zero-delay ones included,
// which join the cycle being drained (an injected key can sort before
// the dispatch that made it), and RunUntil horizons drag the clock
// past empty stretches. At every dispatch, key.less and event.before
// must agree with the model's order on a pair of pending events.
func TestEngineQueueOrderDifferential(t *testing.T) {
	lanes := []int32{NoLane, 0, 1, 2, 3, 5, 8, 13, 255, 4095}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var pending []ref
		draws := map[int32]uint64{}
		injSeq := uint64(1) << 40 // above every drawn seq, so keys stay unique
		scheduled, fired := 0, 0
		// seen counts what the run covered: dispatches on lanes -2 and
		// 4095, injections, zero-delay pushes made mid-cycle, pushes at
		// the wheel's edge and beyond, and wraps.
		seen := map[string]int{}
		delay := func() Cycles {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				seen["delay wheelSize-1"]++
				return wheelSize - 1
			case 2:
				seen["delay wheelSize"]++
				return wheelSize
			case 3:
				d := Cycles(rng.Intn(4*wheelSize + 1))
				if d > wheelSize {
					seen["delay beyond wheelSize"]++
				}
				return d
			default:
				return Cycles(rng.Intn(64))
			}
		}
		var fire func()
		schedule := func(inCycle bool) {
			if scheduled == 4000 {
				return
			}
			scheduled++
			d := delay()
			if d == 0 && inCycle {
				seen["zero-delay push mid-cycle"]++
			}
			at := e.Now() + d
			if rng.Intn(3) == 0 {
				lane := lanes[rng.Intn(len(lanes))]
				if rng.Intn(4) == 0 {
					lane = BarrierLane
				}
				e.InjectEventAt(at, lane, injSeq, fnSink{}, 0, fire)
				pending = append(pending, ref{at, lane, injSeq})
				injSeq++
				seen["injected"]++
				return
			}
			lane := lanes[rng.Intn(len(lanes))]
			e.SetLane(lane)
			e.ScheduleEventAt(at, fnSink{}, 0, fire)
			pending = append(pending, ref{at, lane, draws[lane]})
			draws[lane]++
		}
		fire = func() {
			got := dispatched(e)
			least := 0
			for i := range pending {
				if pending[i].cmp(pending[least]) < 0 {
					least = i
				}
			}
			if want := pending[least]; got != want.key() || got.at != e.Now() {
				t.Fatalf("seed %d dispatch %d: got %v at now %d, want %+v", seed, fired, got, e.Now(), want)
			}
			switch laneOf(got.tie) {
			case BarrierLane:
				seen["lane -2 dispatched"]++
			case 4095:
				seen["lane 4095 dispatched"]++
			}
			if got.at >= 8*wheelSize {
				seen["wheel wrapped"]++
			}
			pending[least] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			fired++
			if len(pending) > 1 {
				a, b := pending[rng.Intn(len(pending))], pending[rng.Intn(len(pending))]
				ka, kb := a.key(), b.key()
				ea, eb := event{at: ka.at, tie: ka.tie}, event{at: kb.at, tie: kb.tie}
				if ka.less(kb) != (a.cmp(b) < 0) || ea.before(&eb) != (a.cmp(b) < 0) {
					t.Fatalf("seed %d: %+v vs %+v: key.less %v, event.before %v, model %d",
						seed, a, b, ka.less(kb), ea.before(&eb), a.cmp(b))
				}
			}
			for n := rng.Intn(3); n > 0; n-- {
				schedule(true)
			}
		}
		for i := 0; i < 64; i++ {
			schedule(false)
		}
		for len(pending) > 0 {
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
					schedule(false)
				}
			}
			if n := uint64(scheduled - len(pending)); e.Processed() != n {
				t.Fatalf("seed %d: Processed() = %d, model dispatched %d", seed, e.Processed(), n)
			}
			at, ok := e.NextEventAt()
			if ok != (len(pending) > 0) {
				t.Fatalf("seed %d: NextEventAt ok=%v with %d pending in the model", seed, ok, len(pending))
			}
			for _, k := range pending {
				if k.at < at {
					t.Fatalf("seed %d: NextEventAt = %d, model holds %+v", seed, at, k)
				}
			}
		}
		if fired != scheduled {
			t.Fatalf("seed %d: fired %d of %d scheduled events", seed, fired, scheduled)
		}
		for _, what := range []string{"lane -2 dispatched", "lane 4095 dispatched", "injected",
			"zero-delay push mid-cycle", "delay wheelSize-1", "delay wheelSize",
			"delay beyond wheelSize", "wheel wrapped"} {
			if seen[what] == 0 {
				t.Fatalf("seed %d: the run never covered %q", seed, what)
			}
		}
	}
}

// TestTieKeyRange pins the packed tie-break key's range: lanes from
// BarrierLane up to maxLane and sequence numbers up to maxSeq pack and
// unpack unchanged, and a key outside that range panics, whether
// injected or drawn from a lane's counter (set near its end here
// rather than counted up to it).
func TestTieKeyRange(t *testing.T) {
	for _, lane := range []int32{BarrierLane, NoLane, 0, 4095, maxLane} {
		for _, seq := range []uint64{0, 1, maxSeq} {
			if tie := tieOf(lane, seq); laneOf(tie) != lane || seqOf(tie) != seq {
				t.Fatalf("tieOf(%d, %d) unpacks to (%d, %d)", lane, seq, laneOf(tie), seqOf(tie))
			}
		}
	}
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if _, ok := recover().(badTie); !ok {
				t.Fatalf("%s did not panic with badTie", what)
			}
		}()
		f()
	}
	e := NewEngine()
	for _, k := range []struct {
		lane int32
		seq  uint64
	}{{BarrierLane - 1, 0}, {maxLane + 1, 0}, {-1 << 31, 0}, {0, maxSeq + 1}, {0, 1 << 63}} {
		panics(fmt.Sprintf("InjectEventAt lane %d seq %d", k.lane, k.seq), func() {
			e.InjectEventAt(1, k.lane, k.seq, fnSink{}, 0, func() {})
		})
	}
	if at, ok := e.NextEventAt(); ok {
		t.Fatalf("a panicking injection queued an event at %d", at)
	}

	e.SetLane(7)
	e.DrawKey() // grows the lane's counter
	e.laneSeq[7+1] = maxSeq
	if lane, seq := e.DrawKey(); lane != 7 || seq != maxSeq {
		t.Fatalf("drew (%d, %d), want (7, %d)", lane, seq, uint64(maxSeq))
	}
	panics("a drawn seq past maxSeq", func() { e.ScheduleEvent(1, fnSink{}, 0, func() {}) })
	e.SetLane(maxLane + 1)
	panics("a draw on a lane past maxLane", func() { e.DrawKey() })

	replay := uint64(maxSeq + 1)
	e.replaySeq = &replay
	panics("a replay key past maxSeq", func() { e.DrawKey() })
}

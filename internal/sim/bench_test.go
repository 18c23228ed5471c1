package sim

import (
	"math/rand"
	"testing"
)

// chainSink reschedules itself until its budget is exhausted,
// exercising the full schedule → siftUp → pop → siftDown → dispatch
// cycle with nothing else in the loop.
type chainSink struct {
	eng       *Engine
	remaining int
}

func (s *chainSink) HandleEvent(int, any) {
	if s.remaining > 0 {
		s.remaining--
		s.eng.ScheduleEvent(1, s, 0, nil)
	}
}

// BenchmarkEngineHotPath measures the typed event path: one event
// scheduled and dispatched per iteration step, no closures, no boxing.
func BenchmarkEngineHotPath(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	s := &chainSink{eng: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.remaining = 1000
		eng.ScheduleEvent(1, s, 0, nil)
		eng.Run()
	}
}

// BenchmarkCoroutineSwitch measures a timed wait: schedule the wake,
// park, dispatch, switch back into the body. A self-rescheduling sink keeps
// the queue non-empty at the same cadence as the waits, so every wait
// also dispatches another sink's event before its own wake.
func BenchmarkCoroutineSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	s := &chainSink{eng: e, remaining: n}
	e.ScheduleEvent(1, s, 0, nil)
	co := NewCoroutine(e, "bench", func(co *Coroutine) {
		for i := 0; i < n; i++ {
			co.WaitCycles(1)
		}
	})
	co.WakeAfter(0)
	b.ResetTimer()
	e.Run()
}

// BenchmarkCoroutineHandoff measures the path that dominates the
// workloads: two coroutines waiting in lockstep, so every WaitCycles
// finds the other coroutine's wake next and hands the engine over — a
// switch out of one coroutine and into the other per wait.
func BenchmarkCoroutineHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	lockstep(e, (n+1)/2)
	b.ResetTimer()
	e.Run()
}

// lockstep starts two coroutines that each wait one cycle n times.
func lockstep(e *Engine, n int) {
	for _, label := range []string{"a", "b"} {
		co := NewCoroutine(e, label, func(co *Coroutine) {
			for i := 0; i < n; i++ {
				co.WaitCycles(1)
			}
		})
		co.WakeAfter(0)
	}
}

// TestScheduleEventAllocFree pins the typed event path at zero
// allocations per event once the heap's backing array has grown to
// working size — the regression guard for reintroducing a per-event
// closure or interface box.
func TestScheduleEventAllocFree(t *testing.T) {
	eng := NewEngine()
	s := &chainSink{eng: eng}
	// Warm-up: grow the event array.
	s.remaining = 256
	eng.ScheduleEvent(1, s, 0, nil)
	eng.Run()
	avg := testing.AllocsPerRun(50, func() {
		s.remaining = 100
		eng.ScheduleEvent(1, s, 0, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("typed event path allocates %v objects per run, want 0", avg)
	}
}

// TestCoroutineWakeAllocFree pins the coroutine wake path (the
// coroutine is its own event sink) at zero allocations per wake. A
// persistent sentinel keeps the queue non-empty, so the measured runs
// always have events to dispatch.
func TestCoroutineWakeAllocFree(t *testing.T) {
	eng := NewEngine()
	s := &chainSink{eng: eng, remaining: 1 << 30}
	eng.ScheduleEvent(1, s, 0, nil)
	co := NewCoroutine(eng, "alloc-test", func(co *Coroutine) {
		for i := 0; i < 1<<20; i++ {
			co.WaitCycles(1)
		}
	})
	co.WakeAfter(0)
	eng.RunLimit(500) // warm-up: goroutine stack, heap array, sudogs
	avg := testing.AllocsPerRun(20, func() { eng.RunLimit(200) })
	if avg != 0 {
		t.Fatalf("coroutine wake path allocates %v objects per run, want 0", avg)
	}
}

// TestCoroutineHandoffAllocFree pins the handoff between two
// coroutines (every wait resumes the other one) at zero allocations
// per handoff once both coroutines are running.
func TestCoroutineHandoffAllocFree(t *testing.T) {
	eng := NewEngine()
	lockstep(eng, 1<<20)
	eng.RunLimit(500) // warm-up: coroutine stacks, heap array
	avg := testing.AllocsPerRun(20, func() { eng.RunLimit(200) })
	if avg != 0 {
		t.Fatalf("coroutine handoff allocates %v objects per run, want 0", avg)
	}
}

// mixSink reschedules itself forever under its own lane, taking its
// delays in turn from a shared table.
type mixSink struct {
	eng    *Engine
	lane   int32
	delays []Cycles
	i      int
}

func (s *mixSink) HandleEvent(int, any) {
	s.i = (s.i + 1) % len(s.delays)
	s.eng.SetLane(s.lane)
	s.eng.ScheduleEvent(s.delays[s.i], s, 0, nil)
}

// BenchmarkEngineQueueMix measures the event queue under the workloads'
// delay mix: 300 events pending, on 64 lanes, with delays about 12 %
// zero, 80 % 8–128 cycles, 4 % 129–512 and 4 % 513–2048. One op is one
// dispatch and the schedule it makes.
func BenchmarkEngineQueueMix(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	delays := make([]Cycles, 4096)
	for i := range delays {
		switch r := rng.Intn(100); {
		case r < 12:
			delays[i] = 0
		case r < 92:
			delays[i] = Cycles(8 + rng.Intn(121))
		case r < 96:
			delays[i] = Cycles(129 + rng.Intn(384))
		default:
			delays[i] = Cycles(513 + rng.Intn(1536))
		}
	}
	e := NewEngine()
	for k := 0; k < 300; k++ {
		s := &mixSink{eng: e, lane: int32(k % 64), delays: delays, i: 13 * k}
		e.ScheduleEvent(delays[s.i], s, 0, nil)
	}
	e.RunLimit(100_000) // warm-up: grow the queue's storage
	b.ResetTimer()
	e.RunLimit(uint64(b.N))
}

// gapSink reschedules itself gap cycles ahead until its budget runs
// out.
type gapSink struct {
	eng       *Engine
	gap       Cycles
	remaining int
}

func (s *gapSink) HandleEvent(int, any) {
	if s.remaining > 0 {
		s.remaining--
		s.eng.ScheduleEvent(s.gap, s, 0, nil)
	}
}

// gapChainAllocs returns the allocations per run of a 100-event chain
// whose events are gap cycles apart, after a warm-up run.
func gapChainAllocs(gap Cycles) float64 {
	eng := NewEngine()
	s := &gapSink{eng: eng, gap: gap, remaining: 256}
	eng.ScheduleEvent(gap, s, 0, nil)
	eng.Run()
	return testing.AllocsPerRun(50, func() {
		s.remaining = 100
		eng.ScheduleEvent(gap, s, 0, nil)
		eng.Run()
	})
}

// TestScheduleOverflowAllocFree pins the queue's overflow heap at zero
// allocations per event: every event of the chain is due a wheel span
// or more ahead.
func TestScheduleOverflowAllocFree(t *testing.T) {
	if avg := gapChainAllocs(3 * wheelSize); avg != 0 {
		t.Fatalf("overflow path allocates %v objects per run, want 0", avg)
	}
}

// TestScheduleWheelWrapAllocFree pins the wheel at zero allocations per
// event while it wraps: each event of the chain is due one cycle short
// of the wheel's span, so the chain goes round the wheel once per event.
func TestScheduleWheelWrapAllocFree(t *testing.T) {
	if avg := gapChainAllocs(wheelSize - 1); avg != 0 {
		t.Fatalf("wrapping wheel allocates %v objects per run, want 0", avg)
	}
}

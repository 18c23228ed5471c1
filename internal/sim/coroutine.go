package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Coroutine models a simulated thread of control (an application thread
// running on a simulated processor). The body runs as a runtime
// coroutine (iter.Pull): the engine's wake transfers control to it
// directly, and Park transfers control straight back, so the body never
// runs concurrently with the engine or with another coroutine and all
// simulated state can be accessed without locks.
//
// Lifecycle:
//
//	co := sim.NewCoroutine(eng, "t0", body) // body starts parked
//	co.WakeAfter(0)                         // schedule first run
//	eng.Run()
//
// Inside body, the coroutine yields virtual time with WaitCycles, or
// parks indefinitely with Park (some event handler later calls
// WakeAfter). When body returns, Done() reports true. A panic in body
// surfaces at the engine's Run as a *CoroutinePanic.
//
// An event sink may own a coroutine's wakes instead: it schedules its
// own events and calls Resume from one when the body should continue
// (proc.Thread does, running some wakes in event context without
// switching to the body at all). The body then parks with Park alone.
type Coroutine struct {
	eng *Engine
	// next resumes the body until its next Park (or its end); yield,
	// called from the body, is that Park.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// waking is true while a wake event for this coroutine is pending
	// in the engine's queue. It guards against double-resume.
	waking bool
	lane   int32 // every slice's lane: the engine's at creation
	label  string
}

// CoroutinePanic is the value a panic in a coroutine's body re-raises
// with at the engine's Run. The runtime moves the panic out of the
// coroutine and so loses the stack it happened on; Stack keeps it.
type CoroutinePanic struct {
	Label string // the coroutine's label
	Value any    // the value the body panicked with
	Stack []byte // debug.Stack() at the panic, inside the body
}

func (p *CoroutinePanic) Error() string {
	return fmt.Sprintf("sim: coroutine %s panicked: %v\n\ncoroutine stack:\n%s", p.Label, p.Value, p.Stack)
}

// NewCoroutine creates a coroutine that will execute body. The body
// does not run until the first WakeAfter; it is created parked. Its
// slices run on the lane current now, whatever key a wake drew.
func NewCoroutine(eng *Engine, label string, body func(*Coroutine)) *Coroutine {
	co := &Coroutine{eng: eng, lane: eng.curLane, label: label}
	// stop is dropped: a body still parked when its run ends just
	// stays parked.
	co.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		defer func() {
			if r := recover(); r != nil {
				panic(&CoroutinePanic{Label: label, Value: r, Stack: debug.Stack()})
			}
		}()
		body(co)
		co.done = true
	})
	return co
}

// Done reports whether the body has returned.
func (co *Coroutine) Done() bool { return co.done }

// scheduleWake arms a resume event after delay cycles. The coroutine
// itself is the event's sink, so a wake allocates nothing.
func (co *Coroutine) scheduleWake(delay Cycles) {
	if co.done {
		panic("sim: wake of finished coroutine " + co.label)
	}
	if co.waking {
		panic("sim: double wake of coroutine " + co.label)
	}
	co.waking = true
	co.eng.ScheduleEvent(delay, co, 0, nil)
}

// HandleEvent implements EventSink: the fired wake event switches to
// the coroutine and returns when it parks again (or finishes),
// preserving the single-activity invariant.
func (co *Coroutine) HandleEvent(int, any) {
	// Clear before transferring control: the body may re-arm its own
	// wake (WaitCycles) during this slice.
	co.waking = false
	co.Resume()
}

// Resume switches to the body until its next Park (or its end), on the
// lane the coroutine was created under. The coroutine's own wake event
// calls it, and so does a sink that owns the coroutine's wakes. It
// must be called from the engine's dispatch, never from inside a
// coroutine's body: no dispatch runs on a coroutine's stack, and a
// nested switch would panic in iter.Pull.
func (co *Coroutine) Resume() {
	co.eng.curLane = co.lane
	co.next()
}

// WakeAfter schedules the coroutine to resume after delay cycles.
// It panics on a double wake or a wake of a finished coroutine, to
// surface protocol bugs rather than silently double-running a thread.
func (co *Coroutine) WakeAfter(delay Cycles) { co.scheduleWake(delay) }

// Park suspends the coroutine until some event calls WakeAfter.
// Must be called from the coroutine's own body.
func (co *Coroutine) Park() { co.yield(struct{}{}) }

// WaitCycles suspends the coroutine for d cycles of virtual time.
// Must be called from the coroutine's own body. The wake is a real
// event, so the wait is a dispatch like any other (observable, tagged).
func (co *Coroutine) WaitCycles(d Cycles) {
	co.scheduleWake(d)
	co.Park()
}

// String implements fmt.Stringer for diagnostics.
func (co *Coroutine) String() string {
	return fmt.Sprintf("coroutine(%s done=%v waking=%v)", co.label, co.done, co.waking)
}

package sim

import "fmt"

// Coroutine models a simulated thread of control (an application thread
// running on a simulated processor). The body runs on its own goroutine
// but never concurrently with the engine or with another coroutine: it
// runs only between an engine resume and the next park, so all
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
// WakeAfter). When body returns, Done() reports true.
type Coroutine struct {
	eng    *Engine
	resume chan struct{}
	parked chan struct{}
	done   bool
	// waking is true while a wake event for this coroutine is pending
	// in the engine's queue. It guards against double-resume.
	waking bool
	// driving is true while the coroutine's own goroutine is running
	// the engine's event loop in place of parking (ParkInline). Its
	// wake event then clears the flag instead of performing a channel
	// handoff.
	driving bool
	label   string
}

// NewCoroutine creates a coroutine that will execute body. The body
// does not run until the first WakeAfter; it is created parked.
func NewCoroutine(eng *Engine, label string, body func(*Coroutine)) *Coroutine {
	co := &Coroutine{
		eng:    eng,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
		label:  label,
	}
	go func() {
		<-co.resume
		body(co)
		co.done = true
		co.parked <- struct{}{}
	}()
	return co
}

// Label returns the diagnostic name given at creation.
func (co *Coroutine) Label() string { return co.label }

// Done reports whether the body has returned.
func (co *Coroutine) Done() bool { return co.done }

// Engine returns the engine this coroutine is bound to.
func (co *Coroutine) Engine() *Engine { return co.eng }

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

// HandleEvent implements EventSink: the fired wake event hands control
// to the coroutine and blocks the engine until it parks again (or
// finishes), preserving the single-activity invariant.
func (co *Coroutine) HandleEvent(int, any) {
	// Clear before transferring control: the body may re-arm its own
	// wake (WaitCycles) during this slice.
	co.waking = false
	if co.driving {
		// The coroutine's own goroutine popped this wake from inside
		// ParkInline's drive loop: clearing the flag IS the resume —
		// the loop exits and the body continues, no handoff needed.
		co.driving = false
		return
	}
	co.resume <- struct{}{}
	<-co.parked
}

// WakeAfter schedules the coroutine to resume after delay cycles.
// It panics on a double wake or a wake of a finished coroutine, to
// surface protocol bugs rather than silently double-running a thread.
func (co *Coroutine) WakeAfter(delay Cycles) { co.scheduleWake(delay) }

// Wakeable reports whether WakeAfter may be called: the coroutine has
// not finished and has no wake pending. (A coroutine that is currently
// executing its slice is nominally wakeable, but only the coroutine
// itself can observe that state, and waking oneself is meaningless.)
func (co *Coroutine) Wakeable() bool { return !co.done && !co.waking }

// Park suspends the coroutine until some event calls WakeAfter.
// Must be called from the coroutine's own body.
func (co *Coroutine) Park() {
	co.parked <- struct{}{}
	<-co.resume
}

// ParkInline suspends the coroutine until some event calls WakeAfter,
// like Park, but keeps the coroutine's goroutine executing the
// engine's event loop while it waits, for as long as no other
// coroutine needs control: message deliveries, coherence-manager
// timers and the wait's own completion chain all dispatch inline on
// this goroutine, and the coroutine's wake event simply falls out of
// the loop — zero channel handoffs for a plain timed wait or an entire
// remote round trip. The drive loop hands back to a real Park the
// moment the next event would resume a different coroutine (or lies
// beyond the engine's horizon), so the dispatch order, event
// timestamps and tie-break draws are identical to a plain Park in
// every case.
func (co *Coroutine) ParkInline() {
	e := co.eng
	co.driving = true
	for co.driving {
		if len(e.pq) == 0 || e.pq[0].at > e.horizon {
			co.driving = false
			co.Park()
			return
		}
		if next, ok := e.pq[0].sink.(*Coroutine); ok && next != co {
			co.driving = false
			co.Park()
			return
		}
		e.Step()
	}
	// Our own wake dispatched from our own Step: the body resumes here
	// with the engine clock at the wake time and curLane already set to
	// the wake event's lane, exactly as if HandleEvent had resumed us.
}

// WaitCycles suspends the coroutine for d cycles of virtual time.
// Must be called from the coroutine's own body. The wake is a real
// event, so the wait is a dispatch like any other (observable, tagged);
// ParkInline keeps it free of goroutine handoffs unless another
// coroutine must run first.
func (co *Coroutine) WaitCycles(d Cycles) {
	co.scheduleWake(d)
	co.ParkInline()
}

// String implements fmt.Stringer for diagnostics.
func (co *Coroutine) String() string {
	return fmt.Sprintf("coroutine(%s done=%v waking=%v)", co.label, co.done, co.waking)
}

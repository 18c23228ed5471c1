// Package sim provides a deterministic discrete-event simulation engine
// with cooperative coroutines.
//
// The engine owns a priority queue of timed events and a virtual clock
// measured in processor cycles. Exactly one piece of simulated activity
// runs at any instant: either an event handler or a coroutine that an
// event handler resumed. Coroutines (used to model application threads
// running on simulated processors) are runtime coroutines (iter.Pull)
// that park whenever they need virtual time to pass; a scheduled wake
// event switches into one and the engine continues once it parks
// again, without a trip through the Go scheduler. A panic in a
// coroutine's body surfaces at Run as a *CoroutinePanic. The result is
// a total, reproducible order of all simulated activity: ties in
// virtual time break on event sequence number, which is assigned in
// scheduling order.
//
// Events are stored by value and dispatch to an EventSink, so
// scheduling allocates nothing on the hot paths (coroutine resume,
// message delivery, component timers). The queue (queue.go) is a
// near-future wheel, one slot per cycle over the next wheelSize cycles,
// where almost every event lands; a binary heap holds the few events
// further ahead. Every event is typed, a sink and a (kind, data) pair
// (ScheduleEvent, ScheduleEventAt), so a handler is a method, never a
// closure.
//
// Ties in virtual time break on a (lane, per-lane sequence) key rather
// than a global scheduling counter. A lane is the node whose simulated
// activity scheduled the event (NoLane for machine-level setup), and
// each lane draws from its own monotone counter. Because a lane's
// activity — and therefore its draw order — depends only on that
// node's own state and the messages it receives, the key of every
// event is identical whether the simulation runs on one event queue or
// on many shard queues exchanging cross-shard events at lookahead
// barriers. That property is what makes the sharded engine (shards.go)
// byte-identical to the serial one. The queue compares the pair as one
// packed word (tieOf).
package sim

import "fmt"

// Cycles is a quantity of virtual time, measured in processor cycles.
// In the PLUS implementation one cycle is 40 ns (25 MHz).
type Cycles uint64

// EventSink receives typed events from the engine. Implementations are
// the simulator's hot-path actors: coroutine resume (*Coroutine),
// message delivery (*mesh.Mesh), and component timers (the coherence
// manager). The (kind, data) pair is sink-defined; data is nil or a
// pointer-shaped value, so dispatching boxes nothing.
type EventSink interface {
	HandleEvent(kind int, data any)
}

// NoLane is the lane of machine-level activity: setup scheduling done
// before the engine runs, and test events driven outside any node's
// simulated activity. It sorts before every node lane.
const NoLane int32 = -1

// BarrierLane is the lane of every key drawn during barrier replay,
// from one counter the ShardSet owns; it sorts before NoLane. An event
// keyed under it dispatches as NoLane until its sink sets its node's
// lane, as the mesh, coherence managers and coroutines do.
const BarrierLane int32 = -2

// A tie-break key packs (lane, seq) into one word: lane−BarrierLane
// in the top 16 bits, seq in the low 48. Comparing two such words
// compares lane first and seq second, the (lane, seq) order, in one
// integer comparison, which is what the queue's slot walk, its heap and
// the barrier's Defer merge do on every step. A machine's lanes run
// from BarrierLane to its largest node (4095 at mesh.MaxNodes), far
// inside the 16-bit field, and a lane would have to draw 2^48 keys to
// run out of sequence numbers; tieOf panics on anything outside.
const (
	seqBits = 48
	maxSeq  = 1<<seqBits - 1
	maxLane = BarrierLane + 1<<(64-seqBits) - 1
)

// tieOf packs (lane, seq) into a tie-break word.
func tieOf(lane int32, seq uint64) uint64 {
	l := uint64(uint32(lane - BarrierLane))
	if l>>(64-seqBits)|seq>>seqBits != 0 {
		panic(badTie{lane, seq})
	}
	return l<<seqBits | seq
}

// badTie is tieOf's panic value, a key it cannot pack. (A formatted
// string built in tieOf would keep tieOf from inlining.)
type badTie struct {
	lane int32
	seq  uint64
}

func (b badTie) Error() string {
	return fmt.Sprintf("sim: tie-break key (lane %d, seq %d) outside the packed range", b.lane, b.seq)
}

// laneOf returns the lane a tie-break word packs.
func laneOf(tie uint64) int32 { return int32(tie>>seqBits) + BarrierLane }

// seqOf returns the sequence number a tie-break word packs.
func seqOf(tie uint64) uint64 { return tie & maxSeq }

// event is one overflow-heap entry, stored by value: scheduling
// allocates no per-event node. (A wheel event is split over the
// queue's link and payload pools and needs no time of its own.)
// Events compare by (at, tie) (event.before): same-time events from
// different lanes order by lane, same-lane events by their lane's draw
// order.
type event struct {
	at   Cycles
	tie  uint64
	kind int32
	sink EventSink
	data any
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now Cycles
	// curLane is the lane of the activity currently executing: set by
	// each dispatch from its event (NoLane for one keyed under
	// BarrierLane), and reset by a sink that runs the activity as its
	// node's (SetLane, Coroutine.Resume). Events scheduled during an
	// activity inherit it as their tie-break lane.
	curLane int32
	// laneSeq holds one monotone draw counter per lane, indexed by
	// lane+1 (so NoLane lands on index 0). Grown on demand.
	laneSeq []uint64
	// q holds the pending events in (at, tie) order.
	q queue
	// processed counts executed events, for diagnostics and runaway
	// detection in tests.
	processed uint64
	// lastAct is the time of the most recent simulated activity, the
	// last dispatched event. Unlike now, it is not dragged forward by
	// RunUntil's horizon, so it reports true elapsed work in sharded
	// rounds.
	lastAct Cycles
	// cur is the queue key of the event currently dispatching. Keys are
	// unique across all engines of a sharded run, so filing deferred
	// work under it lets the barrier replay every engine's log in the
	// order one engine would have made the calls (runDeferred).
	cur key
	// inRound is set by ShardSet while this engine runs a round;
	// deferred logs the Defer calls made meanwhile, in this engine's
	// execution order, for replay at the round's barrier.
	inRound  bool
	deferred []deferredCall
	// replaySeq, set while a ShardSet replays a barrier, is the set's
	// one key counter, which DrawKey then draws from.
	replaySeq *uint64
}

// key is an event's queue key: its time and packed tie-break.
type key struct {
	at  Cycles
	tie uint64
}

func (a key) less(b key) bool { return a.at < b.at || a.at == b.at && a.tie < b.tie }

// deferredCall is one Defer postponed to the next barrier, filed under
// the key of the dispatch that requested it.
type deferredCall struct {
	at   key
	sink EventSink
	kind int
	data any
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{curLane: NoLane, q: newQueue()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Cycles { return e.now }

// LastActivityAt returns the time of the most recent simulated
// activity (the last dispatched event). RunUntil
// may leave Now beyond it; elapsed-time reporting wants this value.
func (e *Engine) LastActivityAt() Cycles { return e.lastAct }

// Lane returns the lane of the activity currently executing (NoLane
// outside event dispatch).
func (e *Engine) Lane() int32 { return e.curLane }

// SetLane declares that the remainder of the current dispatch executes
// as the given node's activity. The mesh calls it when a delivery
// event — scheduled under the sender's lane — starts running at the
// destination, so everything the destination schedules draws from the
// destination's own counter.
func (e *Engine) SetLane(lane int32) { e.curLane = lane }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// InRound reports whether this engine is inside a ShardSet round,
// where a Defer waits for the round's barrier instead of running at
// once.
func (e *Engine) InRound() bool { return e.inRound }

// Defer calls sink.HandleEvent(kind, data) at the next point where the
// whole machine is quiescent: at once, unless this engine is inside a
// ShardSet round, in which case the call is logged under the current
// dispatch's key and ShardSet replays it at the round's barrier,
// merged with every other engine's log in the order one engine would
// have made the calls. Work on state no shard owns (the shared link
// queues, copy-lists, a sharded observer's ring) goes through here.
// Mid-round, only the goroutine running this engine's round may call
// it.
func (e *Engine) Defer(sink EventSink, kind int, data any) {
	if e.inRound {
		e.logDeferred(sink, kind, data)
		return
	}
	sink.HandleEvent(kind, data)
}

// logDeferred is Defer's in-round half. It stays out of line so that
// Defer's own stack frame is small: the inline case runs on simulated
// threads' goroutine stacks, and a deeper send path grows them.
//
//go:noinline
func (e *Engine) logDeferred(sink EventSink, kind int, data any) {
	e.deferred = append(e.deferred, deferredCall{at: e.cur, sink: sink, kind: kind, data: data})
}

// ScheduleEvent delivers (kind, data) to sink after delay cycles.
func (e *Engine) ScheduleEvent(delay Cycles, sink EventSink, kind int, data any) {
	e.ScheduleEventAt(e.now+delay, sink, kind, data)
}

// ScheduleEventAt delivers (kind, data) to sink at absolute virtual
// time at. Scheduling in the past is a programming error and panics:
// the engine's clock never moves backward.
func (e *Engine) ScheduleEventAt(at Cycles, sink EventSink, kind int, data any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	e.q.push(at, e.drawTie(), sink, int32(kind), data, e.now)
}

// DrawKey draws the tie-break key the next scheduling by the current
// activity would receive: the current lane and the next value of its
// counter. The mesh uses it to stamp deferred messages at send time,
// so an event injected into another shard's queue at a barrier carries
// exactly the key it would have had on a single shared queue. During
// barrier replay the key is BarrierLane's, alike for every shard count.
func (e *Engine) DrawKey() (lane int32, seq uint64) {
	tie := e.drawTie()
	return laneOf(tie), seqOf(tie)
}

// drawTie is DrawKey, packed.
func (e *Engine) drawTie() uint64 {
	if e.replaySeq != nil {
		seq := *e.replaySeq
		*e.replaySeq++
		return tieOf(BarrierLane, seq)
	}
	idx := int(e.curLane) + 1
	for idx >= len(e.laneSeq) {
		e.laneSeq = append(e.laneSeq, 0)
	}
	seq := e.laneSeq[idx]
	e.laneSeq[idx]++
	return tieOf(e.curLane, seq)
}

// InjectEventAt enqueues an event carrying an explicit tie-break key
// drawn on another engine (DrawKey at send time). The sharded runner
// calls it at lookahead barriers to move cross-shard events into the
// owning shard's queue. It relies on conservative lookahead: a
// cross-shard event is sent at least one window before it is due, and
// the receiving shard stopped at the window's end, so at ≥ now. The
// queue depends on that bound (its wheel holds only events in
// [now, now+wheelSize)); an event in the past panics, and so does a
// key outside the packed range (tieOf).
func (e *Engine) InjectEventAt(at Cycles, lane int32, seq uint64, sink EventSink, kind int, data any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: inject at %d before now %d", at, e.now))
	}
	e.q.push(at, tieOf(lane, seq), sink, int32(kind), data, e.now)
}

// NextEventAt returns the time of the earliest pending event, or
// ok=false when the queue is empty.
func (e *Engine) NextEventAt() (at Cycles, ok bool) {
	at, h := e.q.head()
	return at, h >= 0
}

// run dispatches the event at queue handle h, due at at: both from
// the one head lookup its caller made.
func (e *Engine) run(at Cycles, h int32) {
	tie, sink, kind, data := e.q.take(at, h)
	e.now = at
	e.lastAct = at
	e.curLane = max(laneOf(tie), NoLane)
	e.cur = key{at, tie}
	e.processed++
	sink.HandleEvent(int(kind), data)
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for at, h := e.q.head(); h >= 0; at, h = e.q.head() {
		e.run(at, h)
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Cycles) {
	for at, h := e.q.head(); h >= 0 && at <= t; at, h = e.q.head() {
		e.run(at, h)
	}
	if e.now < t {
		e.now = t
	}
}

// RunLimit executes at most n events; it returns the number executed.
// Useful as a runaway backstop in tests.
func (e *Engine) RunLimit(n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		at, h := e.q.head()
		if h < 0 {
			break
		}
		e.run(at, h)
	}
	return i
}

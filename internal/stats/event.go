// The structured event layer: the "simulated and instrumented in
// detail" (§2.5) face of the simulator. Components emit fixed-size,
// value-typed Events into a preallocated overwrite-oldest ring — no
// interface boxing, no Sprintf, no allocation on any hot path — and
// causal IDs threaded through mesh.Msg let a write's request →
// update-chain → ack span be reconstructed from the stream after the
// run. Exporters (chrometrace.go, stallsum.go) and the latency
// histograms (hist.go) are built on top of this file.
package stats

import (
	"fmt"
	"iter"
	"math/bits"
	"strings"

	"plus/internal/sim"
)

// EventKind enumerates the structured event types. The (A, B) payload
// words are kind-specific; Sub carries a small secondary code (a
// protocol message kind, stall class, or link direction).
type EventKind uint8

const (
	// EvNone is the zero Event; never emitted.
	EvNone EventKind = iota

	// Protocol lifecycle (internal/coherence). Cause is the operation's
	// causal ID, stamped at issue and carried by every message the
	// operation generates.
	EvReadIssue  // remote blocking read issued; A = packed address
	EvReadDone   // read reply consumed; A = cycles since issue
	EvWriteIssue // write accepted into the pending-writes cache; A = packed address, B = pending id
	EvWriteAck   // pending write retired; A = cycles since issue, B = pending id
	EvRMWIssue   // delayed op issued; Sub = op code, A = packed address, B = operand
	EvRMWExec    // delayed op executed at the master; Sub = op code, A = frame, B = words modified
	EvRMWDone    // delayed-op result arrived at the originator; A = cycles since issue, B = slot
	EvUpdate     // update applied at a copy; A = frame, B = words written
	EvPageCopy   // page-copy shipped; A = destination node, B = frame
	EvFence      // write fence issued; A = thread id, B = pending writes at issue

	// Network (internal/mesh). Sub = protocol message kind on
	// inject/deliver; A/B as noted.
	EvNetInject  // message enters the network; A = destination, B = size in flits
	EvNetHop     // message reserves one directed link; Sub = direction, A = link slot, B = occupancy cycles
	EvNetDeliver // message arrives at its destination port; A = source
	EvNetNack    // message refused by a full link buffer; A = destination
	EvNetDrop    // fault injector lost the message; A = destination
	EvNetDup     // fault injector duplicated the message; A = destination
	EvNetDelay   // fault injector delayed the message; A = extra cycles

	// Reliability sublayer (internal/coherence/transport.go).
	EvRetransmit // one queued message re-sent; Sub = kind, A = destination, B = sequence number
	EvBackoff    // retransmit timeout grew; Sub = 1 when NACK-triggered, A = destination, B = new timeout

	// Processor (internal/proc).
	EvDispatch   // a thread got the processor; A = thread id, B = switch cost
	EvStallBegin // a thread began stalling; Sub = stall class, A = thread id
	EvStallEnd   // the stall ended; Sub = stall class, A = thread id, B = stalled cycles

	// Data-access layer (internal/proc), recorded only with
	// ObserveConfig.DataAccess: the typed per-thread access stream the
	// happens-before race detector (internal/trace) consumes. A carries
	// the word-grained virtual address where noted (identity is virtual:
	// the same word maps to different physical copies on different
	// nodes); B packs the thread id above the 32-bit value.
	EvAccRead   // read completed; Sub = 1 if sync-annotated; A = vaddr, B = tid<<32 | value
	EvAccWrite  // write issued; Sub = 1 if sync-annotated; A = vaddr, B = tid<<32 | value
	EvAccRMW    // delayed op issued; Sub = op code, A = vaddr, B = tid<<32 | operand; Cause pairs with EvRMWExec/EvAccVerify
	EvAccVerify // delayed-op result consumed (Verify/TryVerify success); A = tid, B = result; Cause pairs with EvAccRMW
	EvAccFence  // write fence COMPLETED (EvFence marks the issue); A = tid
	EvAccSpawn  // thread created; A = tid
	EvAccWake   // explicit Wake issued; A = waker tid, B = target tid
	EvAccSleep  // Sleep returned (wake absorbed); A = tid
	EvAccExit   // thread body returned; A = tid
	EvAccMap    // page mapping installed (fault fill or kernel remap); A = vpage, B = packed gaddr

	evKinds // count sentinel
)

// Stall classes (Sub of EvStallBegin/EvStallEnd), matching the four
// stall counters of stats.Node.
const (
	StallRead uint8 = iota
	StallWrite
	StallFence
	StallVerify
)

// StallClassName names a stall class for renderers.
func StallClassName(c uint8) string {
	switch c {
	case StallRead:
		return "read"
	case StallWrite:
		return "write"
	case StallFence:
		return "fence"
	case StallVerify:
		return "verify"
	default:
		return fmt.Sprintf("class%d", c)
	}
}

var eventKindNames = [evKinds]string{
	EvNone:       "none",
	EvReadIssue:  "read",
	EvReadDone:   "read-done",
	EvWriteIssue: "write",
	EvWriteAck:   "ack",
	EvRMWIssue:   "rmw",
	EvRMWExec:    "rmw-exec",
	EvRMWDone:    "rmw-done",
	EvUpdate:     "update",
	EvPageCopy:   "page-copy",
	EvFence:      "fence",
	EvNetInject:  "net-inject",
	EvNetHop:     "net-hop",
	EvNetDeliver: "net-deliver",
	EvNetNack:    "net-nack",
	EvNetDrop:    "net-drop",
	EvNetDup:     "net-dup",
	EvNetDelay:   "net-delay",
	EvRetransmit: "retransmit",
	EvBackoff:    "backoff",
	EvDispatch:   "dispatch",
	EvStallBegin: "stall",
	EvStallEnd:   "stall-end",
	EvAccRead:    "acc-read",
	EvAccWrite:   "acc-write",
	EvAccRMW:     "acc-rmw",
	EvAccVerify:  "acc-verify",
	EvAccFence:   "acc-fence",
	EvAccSpawn:   "acc-spawn",
	EvAccWake:    "acc-wake",
	EvAccSleep:   "acc-sleep",
	EvAccExit:    "acc-exit",
	EvAccMap:     "acc-map",
}

// String names the kind ("write", "update", "net-hop", ...).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one structured record: fixed-size, value-typed, no strings
// and no interfaces, so the ring push on the hot path is a plain copy.
type Event struct {
	// At is the cycle the event happened.
	At sim.Cycles
	// Cause links every event of one logical operation (a write and
	// its update chain and ack share the Cause stamped at issue);
	// 0 means uncaused (standalone event).
	Cause uint64
	// A and B are kind-specific payload words.
	A, B uint64
	// Kind is the event type.
	Kind EventKind
	// Sub is a kind-specific secondary code (protocol message kind,
	// stall class, link direction).
	Sub uint8
	// Node is the mesh node the event happened on (-1 = machine-wide).
	Node int16
}

// String renders one event in the trace dump format.
func (e Event) String() string {
	return fmt.Sprintf("[%8d] n%-3d %-11s cause=%-6d a=%#x b=%#x sub=%d",
		e.At, e.Node, e.Kind, e.Cause, e.A, e.B, e.Sub)
}

// Ring is a fixed-capacity overwrite-oldest event buffer. The backing
// slice is allocated once (capacity rounded up to a power of two) and
// Push never allocates; when full, the oldest event is overwritten.
type Ring struct {
	buf  []Event
	mask uint64
	n    uint64 // total events ever pushed
}

// DefaultRingEvents is the ring capacity when ObserveConfig.Events is
// zero or negative — the explicit contract the old tracer's silent
// "limit <= 0 becomes 4096" never stated.
const DefaultRingEvents = 4096

// NewRing returns a ring holding the newest `capacity` events
// (rounded up to a power of two; <= 0 means DefaultRingEvents).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingEvents
	}
	c := 1 << bits.Len64(uint64(capacity-1))
	return &Ring{buf: make([]Event, c), mask: uint64(c - 1)}
}

// Push records e, overwriting the oldest event when the ring is full.
func (r *Ring) Push(e Event) {
	r.buf[r.n&r.mask] = e
	r.n++
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Pushed returns the total number of events ever pushed (held plus
// overwritten) — a cheap counter that reads no event.
func (r *Ring) Pushed() uint64 { return r.n }

// Overwritten returns how many events were lost to overwriting.
func (r *Ring) Overwritten() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// All yields the held events oldest-first, read in place.
func (r *Ring) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for i := r.n - min(r.n, uint64(len(r.buf))); i < r.n; i++ {
			if !yield(r.buf[i&r.mask]) {
				return
			}
		}
	}
}

// ObserveConfig parameterizes an Observer. The zero value records all
// events into a DefaultRingEvents-deep ring with no time-series
// sampling.
type ObserveConfig struct {
	// Events is the ring capacity (rounded up to a power of two;
	// <= 0 means DefaultRingEvents). The ring keeps the NEWEST Events
	// entries, overwriting the oldest when full.
	Events int
	// WindowStart/WindowEnd restrict recording to cycles in
	// [WindowStart, WindowEnd]; WindowEnd 0 means no upper bound.
	// Histograms and samples are not windowed — only the event stream.
	WindowStart, WindowEnd sim.Cycles
	// SampleEvery, when > 0, records a time-series Sample (link
	// utilization, buffer depth, per-node stall deltas) roughly every
	// that many cycles: at the first lookahead barrier at or after each
	// period boundary, so sampling never adds events to the schedule.
	SampleEvery sim.Cycles
	// DataAccess records the per-thread data-access stream (the EvAcc*
	// kinds) that the happens-before race detector consumes. Off by
	// default: with it off every emission site is gated out and runs
	// stay byte-identical to an uninstrumented-access build. Like the
	// rest of the observer it never schedules events, so turning it on
	// does not perturb elapsed cycles or counters either.
	DataAccess bool
}

// TraceMeta describes the machine an Observer was bound to, for
// exporters that need topology (one Perfetto track per node and link).
type TraceMeta struct {
	Nodes      int      `json:"nodes"`
	MeshWidth  int      `json:"mesh_w,omitempty"`
	MeshHeight int      `json:"mesh_h,omitempty"`
	Links      []string `json:"links,omitempty"` // label per directed link slot
}

// Observer is one machine's structured-event collector: the ring, the
// latency histograms, and the time-series samples. Create one with
// NewObserver, pass it to the machine via core.Config.Observe, and read
// it after Run.
//
// An Observer serves exactly one machine: core.NewMachine binds it to
// the machine's clock and topology, and binding twice panics — sharing
// one observer across machines would interleave their streams
// nondeterministically.
type Observer struct {
	cfg  ObserveConfig
	ring *Ring
	// Metrics are the log-bucketed latency histograms (hist.go),
	// populated by proc and coherence as operations complete.
	Metrics Metrics

	samples []Sample
	meta    TraceMeta
	clock   func() sim.Cycles
	bound   bool
	// winEnd is WindowEnd with 0 mapped to max, so Emit does one
	// comparison instead of a zero test plus a comparison.
	winEnd sim.Cycles

	// Sharding (shardobs.go). A master observer owns the ring; each
	// shard engine gets a child (eng != nil) sharing it, which queues
	// the events it emits mid-round for the barrier to push.
	eng    *sim.Engine
	queued []Event
	// causeBy holds CauseFor's per-node counters (master or child —
	// each node's issues all happen on the observer serving its shard).
	causeBy []uint64
}

// NewObserver returns an unbound observer with its ring preallocated.
func NewObserver(cfg ObserveConfig) *Observer {
	o := &Observer{cfg: cfg, ring: NewRing(cfg.Events)}
	o.winEnd = cfg.WindowEnd
	if o.winEnd == 0 {
		o.winEnd = ^sim.Cycles(0)
	}
	return o
}

// Bind attaches the observer to one machine's clock and topology.
// core.NewMachine calls this; binding an already-bound observer panics
// (one observer per machine).
func (o *Observer) Bind(clock func() sim.Cycles, meta TraceMeta) {
	if o.bound {
		panic("stats: Observer bound to a second machine (use one Observer per machine)")
	}
	o.bound = true
	o.clock = clock
	o.meta = meta
}

// Emit records an event at the current cycle. It allocates nothing:
// outside the recording window it is two compares; inside, one ring
// copy.
func (o *Observer) Emit(kind EventKind, node int, sub uint8, cause, a, b uint64) {
	o.EmitAt(o.clock(), kind, node, sub, cause, a, b)
}

// EmitAt records an event with an explicit timestamp (per-hop link
// reservations happen at computed future times).
func (o *Observer) EmitAt(at sim.Cycles, kind EventKind, node int, sub uint8, cause, a, b uint64) {
	if at < o.cfg.WindowStart || at > o.winEnd {
		return
	}
	e := Event{At: at, Cause: cause, A: a, B: b, Kind: kind, Sub: sub, Node: int16(node)}
	if o.eng != nil && o.eng.InRound() {
		o.queued = append(o.queued, e)
		o.eng.Defer(o, len(o.queued)-1, nil)
		return
	}
	o.ring.Push(e)
}

// CauseFor returns a fresh nonzero causal ID for an operation issued
// by the given node. The counters are per-node, so a node's k-th issue
// gets the same ID in serial and sharded runs: all
// of one node's issues pass through the observer serving its shard in
// the node's own program order, whatever the shard count. IDs pack
// node+1 above a 40-bit per-node counter — never zero, never colliding
// across nodes.
func (o *Observer) CauseFor(node int) uint64 {
	for node >= len(o.causeBy) {
		o.causeBy = append(o.causeBy, 0)
	}
	o.causeBy[node]++
	return uint64(node+1)<<40 | o.causeBy[node]
}

// All yields the recorded events oldest-first, read in place: the
// exporters' view of the ring.
func (o *Observer) All() iter.Seq[Event] { return o.ring.All() }

// Overwritten returns how many events the ring overwrote.
func (o *Observer) Overwritten() uint64 { return o.ring.Overwritten() }

// EventCount returns the total events recorded so far (held plus
// overwritten), without copying the ring.
func (o *Observer) EventCount() uint64 { return o.ring.Pushed() }

// RingCap returns the ring's actual (rounded) capacity.
func (o *Observer) RingCap() int { return o.ring.Cap() }

// Meta returns the topology the observer was bound with.
func (o *Observer) Meta() TraceMeta { return o.meta }

// Config returns the observer's configuration.
func (o *Observer) Config() ObserveConfig { return o.cfg }

// SampleInterval returns the configured sampling period (0 = off).
func (o *Observer) SampleInterval() sim.Cycles { return o.cfg.SampleEvery }

// DataAccess reports whether the data-access event layer is on — the
// single gate every EvAcc* emission site checks after the nil check.
func (o *Observer) DataAccess() bool { return o.cfg.DataAccess }

// AddSample appends one time-series sample (called by core's sampler).
func (o *Observer) AddSample(s Sample) { o.samples = append(o.samples, s) }

// Samples returns the recorded time-series.
func (o *Observer) Samples() []Sample { return o.samples }

// Dump renders the event stream as text, one event per line, with an
// overwrite note when the ring wrapped.
func (o *Observer) Dump() string {
	var b strings.Builder
	for e := range o.ring.All() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if d := o.ring.Overwritten(); d > 0 {
		fmt.Fprintf(&b, "... %d earlier event(s) overwritten (ring capacity %d)\n", d, o.ring.Cap())
	}
	return b.String()
}

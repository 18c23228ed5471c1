// Shard-local observation: one child observer per shard engine, whose
// events reach the master ring in the order one engine would have
// emitted them.
//
// A sharded run cannot push into one ring from K shard goroutines,
// and even a locked ring would record events in racy real-time order.
// Instead each shard's components emit into that shard's child. While
// the child's engine runs a lookahead round, at any shard count, the
// child queues each event and hands the engine one sim.Engine.Defer
// for it; the barrier replays every engine's Defer log in one merge,
// which pushes each event at its serial position, interleaved with the
// round's deferred sends (cross-shard, contended or bounded) and
// kernel splices. Those replayed calls push their own events at once,
// since no engine is in a round while they run. Every wait is a
// scheduled wake, so all simulated activity runs inside a dispatch and
// every event has a dispatch to be filed under. Outside a round (setup, barrier replay, between runs) a
// child pushes straight to the master ring.
//
// The time-series sampler runs at barriers, which fall at the same
// instants at every shard count. Work that barrier replay schedules (a
// page copy sent by a kernel splice) is keyed from the one barrier
// counter, so its events fall alike at every shard count too. The ring
// is overwrite-oldest; a barrier can evict events an earlier one
// pushed, exactly as later events evict earlier ones.
package stats

import "plus/internal/sim"

// ShardChild returns a new child of this observer serving one shard
// engine. The child pushes into the master's ring and shares its
// window configuration, keeps its own Metrics histograms (folded by
// Machine.FoldShard after the run), and reads the engine's clock.
// Children of children are not a thing.
func (o *Observer) ShardChild(eng *sim.Engine) *Observer {
	if o.eng != nil {
		panic("stats: ShardChild of a shard child (children hang off the master observer)")
	}
	return &Observer{cfg: o.cfg, ring: o.ring, winEnd: o.winEnd, clock: eng.Now, eng: eng}
}

// HandleEvent implements sim.EventSink for a child's queued events:
// the barrier's replay of its engine's Defer log pushes event i, in
// queue order, into the ring. The last one empties the queue.
func (o *Observer) HandleEvent(i int, _ any) {
	o.ring.Push(o.queued[i])
	if i == len(o.queued)-1 {
		o.queued = o.queued[:0]
	}
}

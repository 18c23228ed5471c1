// Shard-local observation: one child observer per shard, merged
// deterministically into the master ring at lookahead barriers.
//
// A sharded run cannot push into one ring from K shard goroutines,
// and even a locked ring would record events in racy real-time order.
// Instead each shard's components emit into that shard's child, which
// tags every event with the engine's DispatchTag — the heap key of the
// dispatch that produced it, the engine's dispatch ordinal, and an
// intra-dispatch draw counter. Each child's buffer is restored to its
// engine's execution order (ordinal, then counter — barrier-replayed
// contention events carry mid-round tags and land at the end), and the
// buffers are then interleaved by sim.MergeByTag's head merge, which
// reconstructs the exact order a single serial engine would have
// emitted them in. A flat key sort would not: serial pop order is not
// key order when a dispatch schedules a same-cycle event under a
// smaller key (see sim.MergeByTag). Every wait is a scheduled wake, so
// all simulated activity runs inside a dispatch and every emission
// carries a real dispatch tag; the merge runs at each lookahead barrier
// with every worker quiescent. Outside rounds (setup, between runs)
// children sit in direct mode and forward to the master ring in plain
// call order.
//
// Two deliberate divergences from a serial trace, both deterministic
// for a fixed shard count: events emitted by barrier work itself
// (kernel copy-list splices) carry the tag of the emitting shard's
// last dispatch rather than a mid-round position, and the time-series
// sampler runs barrier-aligned rather than per-dispatch. The ring is
// still overwrite-oldest; a merge can evict events an earlier merge
// pushed, exactly as a serial run's later events evict earlier ones.
package stats

import (
	"sort"

	"plus/internal/sim"
)

// taggedEvent is one buffered shard-local event with the global
// serialization key that positions it in the merged stream.
type taggedEvent struct {
	tag sim.DispatchTag
	ev  Event
}

// ShardChild returns a new per-shard child of this observer. The
// child shares the master's window configuration, keeps its own
// Metrics histograms (folded with FoldShardMetrics after the run),
// and reads the shard engine's clock and dispatch tags through the
// two closures. Children of children are not a thing.
func (o *Observer) ShardChild(clock func() sim.Cycles, tagf func() sim.DispatchTag) *Observer {
	if o.parent != nil {
		panic("stats: ShardChild of a shard child (children hang off the master observer)")
	}
	c := &Observer{cfg: o.cfg, winEnd: o.winEnd, parent: o, clock: clock, tagf: tagf}
	o.children = append(o.children, c)
	return c
}

// SetShardBuffering flips every child between direct mode (false:
// quiescent periods, events forward straight to the master ring in
// call order) and buffered mode (true: shard workers running
// concurrently, each child logs tagged events privately for
// MergeShardEvents). The core run loop buffers around each sharded
// run and merges at every barrier.
func (o *Observer) SetShardBuffering(on bool) {
	for _, c := range o.children {
		c.buffered = on
	}
}

// MergeShardEvents drains every child's buffer into the master ring
// in serial emission order. Call it only with all shard workers
// quiescent (at a lookahead barrier or after the run).
func (o *Observer) MergeShardEvents() {
	total := 0
	for _, c := range o.children {
		total += len(c.tbuf)
	}
	if total == 0 {
		return
	}
	if o.shardQs == nil {
		o.shardQs = make([][]taggedEvent, len(o.children))
	}
	for i, c := range o.children {
		// Restore each child's buffer to its engine's execution order:
		// barrier-replayed contention events were appended after the
		// round's live emissions but carry reserved mid-round tags.
		buf := c.tbuf
		sort.SliceStable(buf, func(a, b int) bool { return buf[a].tag.EngineLess(buf[b].tag) })
		o.shardQs[i] = buf
	}
	sim.MergeByTag(o.shardQs,
		func(te *taggedEvent) sim.DispatchTag { return te.tag },
		func(te *taggedEvent) { o.ring.Push(te.ev) })
	for i, c := range o.children {
		c.tbuf = c.tbuf[:0]
		o.shardQs[i] = nil
	}
}

// FoldShardMetrics adds every child's latency histograms into the
// master's and resets them, so the master's Metrics read exactly as a
// serial run's would. Call once after the run.
func (o *Observer) FoldShardMetrics() {
	for _, c := range o.children {
		o.Metrics.Add(&c.Metrics)
		c.Metrics = Metrics{}
	}
}

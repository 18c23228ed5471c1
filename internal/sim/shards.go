package sim

import "fmt"

// ShardSet is the run loop for one machine on K engines — one per mesh
// shard, each owning its nodes' events — under conservative lookahead.
// Cross-shard interaction happens only through messages with a fixed
// minimum link latency, so within a window of that width every shard's
// events are independent of what the other shards are concurrently
// doing: the earliest possible cross-shard arrival lies beyond the
// window by construction.
//
// With several engines, Run proceeds in rounds. Each round picks the
// globally earliest pending event time T, lets every shard execute its
// events in [T, T+Window-1] on its own worker goroutine, then
// synchronizes at a barrier where the round's cross-shard messages are
// injected into the owning shards' queues (Drain) carrying the
// tie-break keys drawn at send time. Because every engine orders its
// queue by the (at, lane, seq) key — not by insertion order — the merged
// schedule is byte-identical to a single engine running the same
// program. Each barrier first replays the round's Defer calls from
// every engine in one MergeByTag pass, then runs BarrierWork, then
// Drain. With one engine there is nothing to synchronize: Run drains
// it on the calling goroutine, with no rounds and no window, and every
// Defer runs at once.
type ShardSet struct {
	// Engines are the per-shard event queues (len >= 1).
	Engines []*Engine
	// Window is the conservative lookahead in cycles: a lower bound on
	// the latency of any cross-shard message (for the PLUS mesh,
	// Base + PerHop). Must be >= 1 when there are several engines.
	Window Cycles
	// BarrierWork, when non-nil, runs at each barrier with all shards
	// quiescent, after the deferred calls and BEFORE Drain — so
	// cross-shard messages it sends are delivered in the same barrier,
	// never a round late. No engine is in a round, so a Defer it makes
	// runs at once.
	BarrierWork func()
	// Drain delivers all cross-shard messages sent during the finished
	// round into the destination shards' queues (InjectEventAt) and
	// returns how many it moved. It runs on the coordinating goroutine
	// with every worker quiescent.
	Drain func() int
	// Quiescent, when non-nil, runs at every point where the whole
	// machine is at rest and safe to inspect, with the time of the
	// latest simulated activity: before every dispatch on a single
	// engine (chained ahead of the engine's own dispatch hook, so
	// dispatches driven from inside a coroutine are covered too), and
	// after every barrier's Drain on several. It must not schedule
	// events, so hooking it in never changes the schedule.
	Quiescent func(at Cycles)
}

// Run executes the engines until every queue is empty and no
// cross-shard mail remains. A panic on any engine surfaces at Run: a
// worker's round recovers it, and Run re-raises it once every worker
// has finished the round.
func (s *ShardSet) Run() {
	switch len(s.Engines) {
	case 0:
		return
	case 1:
		s.runOne(s.Engines[0])
		return
	}
	if s.Window < 1 {
		panic(fmt.Sprintf("sim: shard window %d < 1", s.Window))
	}
	start := make([]chan Cycles, len(s.Engines))
	done := make(chan struct{}, len(s.Engines))
	// panics[i] is what engine i's round panicked with, if anything.
	panics := make([]any, len(s.Engines))
	for i, e := range s.Engines {
		start[i] = make(chan Cycles)
		go func(i int, e *Engine, start <-chan Cycles) {
			for h := range start {
				func() {
					defer func() { panics[i] = recover() }()
					e.RunUntil(h)
				}()
				done <- struct{}{}
			}
		}(i, e, start[i])
	}
	defer func() {
		for _, c := range start {
			close(c)
		}
	}()

	logs := make([][]deferredCall, len(s.Engines))
	for {
		// Drain before picking T, not after the workers finish: mail can
		// exist before the first round (setup code sending cross-shard
		// messages), and the final round's mail must land before the
		// emptiness check decides the run is over. Deferred calls and
		// BarrierWork come first so mail they produce drains this
		// barrier too.
		s.runDeferred(logs)
		if s.BarrierWork != nil {
			s.BarrierWork()
		}
		if s.Drain != nil {
			s.Drain()
		}
		if s.Quiescent != nil {
			s.Quiescent(s.LastActivityAt())
		}
		t, ok := s.nextEventTime()
		if !ok {
			return
		}
		h := t + s.Window - 1
		for i, c := range start {
			s.Engines[i].inRound = true
			c <- h
		}
		for range s.Engines {
			<-done
		}
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
		for _, e := range s.Engines {
			e.inRound = false
		}
	}
}

// runDeferred replays the finished round's Defer calls, head-merging
// the engines' logs by dispatch tag (MergeByTag) so they run in the
// order one engine would have made them. No engine is in a round, so
// anything a replayed call defers in turn runs at once. logs is
// scratch space, one slot per engine.
func (s *ShardSet) runDeferred(logs [][]deferredCall) {
	n := 0
	for i, e := range s.Engines {
		logs[i] = e.deferred
		n += len(e.deferred)
	}
	if n == 0 {
		return
	}
	MergeByTag(logs,
		func(d *deferredCall) DispatchTag { return d.tag },
		func(d *deferredCall) { d.sink.HandleEvent(d.kind, d.data) })
	for _, e := range s.Engines {
		clear(e.deferred)
		e.deferred = e.deferred[:0]
	}
}

// runOne drains a single engine, with the Quiescent hook (if any)
// chained ahead of the engine's dispatch hook for the run.
func (s *ShardSet) runOne(e *Engine) {
	if q := s.Quiescent; q != nil {
		prev := e.onEvent
		e.onEvent = func(at Cycles, kind int) {
			q(at)
			if prev != nil {
				prev(at, kind)
			}
		}
		defer func() { e.onEvent = prev }()
	}
	e.Run()
}

// Now returns the latest clock across the engines.
func (s *ShardSet) Now() Cycles {
	var t Cycles
	for _, e := range s.Engines {
		t = max(t, e.Now())
	}
	return t
}

// LastActivityAt returns the latest LastActivityAt across the engines:
// RunUntil drags each shard's clock to the round horizon, but only
// real activity counts, so this matches a single engine's final clock.
func (s *ShardSet) LastActivityAt() Cycles {
	var t Cycles
	for _, e := range s.Engines {
		t = max(t, e.LastActivityAt())
	}
	return t
}

// nextEventTime returns the earliest pending event time across all
// shards (mail is always drained before this runs, so queues are the
// complete picture).
func (s *ShardSet) nextEventTime() (Cycles, bool) {
	var min Cycles
	ok := false
	for _, e := range s.Engines {
		if at, has := e.NextEventAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

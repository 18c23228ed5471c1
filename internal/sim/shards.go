package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShardSet is the run loop for one machine on K engines — one per mesh
// shard, each owning its nodes' events — under conservative lookahead.
// Cross-shard interaction happens only through messages with a fixed
// minimum link latency, so within a window of that width every shard's
// events are independent of what the other shards are concurrently
// doing: the earliest possible cross-shard arrival lies beyond the
// window by construction.
//
// Run proceeds in rounds at every K, one included. Each round picks
// the globally earliest pending event time T and lets every shard
// execute its events in [T, T+Window-1]: the calling goroutine runs
// engine 0 itself, and one worker goroutine per further engine runs
// the rest. The shards then synchronize at a barrier, which replays
// the round's Defer calls from every engine in one merged pass
// (runDeferred), cross-shard messages among them: each is injected
// into the owning shard's queue with the tie-break key drawn at send
// time. Because every engine orders its queue by the (at, lane, seq)
// key — not by insertion order — the merged schedule is byte-identical
// to a single engine running the same program. Keys drawn during
// replay come from one counter (BarrierLane), whatever the split, and
// the barrier instants too are the same at every K.
//
// A round is short (tens of microseconds at 16×16), so the handoff
// must not go through the Go scheduler: parking a worker on a channel
// and waking it every round made the K=2 run slower than one engine,
// because each wake-up waits for an idle P to steal the woken
// goroutine and the workers migrate between cores. Instead the
// goroutines meet at a polling barrier (barrier): workers poll an
// atomic round counter for the next horizon and the coordinator polls
// an atomic count of outstanding workers. Polling pays only while
// every polling goroutine has a CPU of its own, so a waiter polls only
// while the process-wide count of busy shard goroutines — those of
// every running ShardSet that are not parked — fits in GOMAXPROCS,
// and then for at most spinFor, yielding every yieldEvery polls.
// Otherwise (K > GOMAXPROCS, a sweep running many machines at once,
// or another process holding the CPU the awaited goroutine needs) it
// parks until that goroutine wakes it.
type ShardSet struct {
	// Engines are the per-shard event queues (len >= 1).
	Engines []*Engine
	// Window is the conservative lookahead in cycles: a lower bound on
	// the latency of any message a round defers to its barrier (for the
	// PLUS mesh, Base + PerHop, or Base with bounded link buffers).
	// Must be >= 1.
	Window Cycles
	// Drain, when non-nil, runs at every barrier after the replay, on
	// the coordinating goroutine with every worker quiescent, for a
	// caller that carries its own cross-shard messages (InjectEventAt);
	// it returns how many it moved. A machine needs none: its
	// cross-shard messages ride Defer.
	Drain func() int
	// Quiescent, when non-nil, runs at the end of every barrier, where
	// the whole machine is at rest and safe to inspect, with the time
	// of the latest simulated activity. It must not schedule events,
	// so hooking it in never changes the schedule.
	Quiescent func(at Cycles)
	// Stats describes the last Run; Run overwrites it.
	Stats     ShardStats
	replaySeq uint64 // barrier replay's one key counter (DrawKey)
}

// ShardStats describes one ShardSet.Run: how its work split into
// rounds and engines, and how long its goroutines waited at barriers.
// The counts are deterministic for a given program and shard count;
// the host times are not.
type ShardStats struct {
	// Rounds counts the lookahead rounds.
	Rounds uint64
	// Dispatches[i] counts the events engine i dispatched.
	Dispatches []uint64
	// PeakDispatches sums, over rounds, the dispatch count of the
	// round's busiest engine: the round-by-round critical path.
	// PeakDispatches·K ÷ ΣDispatches is the max/mean split (1 is a
	// perfect balance).
	PeakDispatches uint64
	// Wait[i] is the host time engine i's goroutine spent at barriers
	// waiting for another goroutine: a worker for the next round's
	// horizon (the coordinator's barrier work included), the
	// coordinator for the workers to finish the round.
	Wait []time.Duration
	// Replayed counts the Defer calls barriers replayed, and
	// ReplayTime the coordinator's host time replaying.
	Replayed   uint64
	ReplayTime time.Duration
}

// Run executes the engines until every queue is empty and no deferred
// call remains. A panic on engine 0 or at a barrier propagates with
// its stack intact; a worker recovers its round's, and once the round
// is over Run re-raises the lowest-numbered engine's. Run returns only
// after its worker goroutines have exited, panicking or not.
func (s *ShardSet) Run() {
	s.Stats = ShardStats{
		Dispatches: make([]uint64, len(s.Engines)),
		Wait:       make([]time.Duration, len(s.Engines)),
	}
	for i, e := range s.Engines {
		s.Stats.Dispatches[i] = e.Processed()
	}
	defer func() {
		for i, e := range s.Engines {
			s.Stats.Dispatches[i] = e.Processed() - s.Stats.Dispatches[i]
		}
	}()
	if len(s.Engines) == 0 {
		return
	}
	if s.Window < 1 {
		panic(fmt.Sprintf("sim: shard window %d < 1", s.Window))
	}
	k := len(s.Engines)
	b := &barrier{procs: int32(runtime.GOMAXPROCS(0)), w: make([]waiter, k)}
	for i := range b.w {
		b.w[i].ch = make(chan struct{}, 1)
	}
	// panics[i] is what worker i's round panicked with, if anything.
	panics := make([]any, k)
	var workers sync.WaitGroup
	busyShards.Add(int32(k))
	for i := 1; i < k; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer busyShards.Add(-1)
			for seen := int64(1); ; seen++ {
				s.Stats.Wait[i] += b.await(i, &b.round, seen)
				if b.stop {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					s.Engines[i].RunUntil(b.horizon)
				}()
				// The last worker out wakes a parked coordinator. If it
				// is about to poll rather than park, it yields first, so
				// the coordinator takes this P at once instead of
				// waiting for an idle one to steal it.
				if b.pending.Add(-1) == 0 && b.wake(0) && busyShards.Load() <= b.procs {
					runtime.Gosched()
				}
			}
		}()
	}
	defer func() {
		// A panic on engine 0 leaves the round's workers running.
		b.await(0, &b.pending, 0)
		b.stop = true
		b.round.Add(1)
		for i := 1; i < k; i++ {
			b.wake(i)
		}
		workers.Wait()
		busyShards.Add(-1)
		for _, e := range s.Engines {
			e.inRound = false // after a panic, a Defer runs at once again
		}
	}()

	pos := make([]int, k)                    // runDeferred's scratch
	last := slices.Clone(s.Stats.Dispatches) // Processed() at the last barrier
	for {
		// The barrier comes before picking T, so the final round's
		// deferred deliveries land before the emptiness check decides
		// the run is over.
		s.runDeferred(pos)
		if s.Drain != nil {
			s.Drain()
		}
		if s.Quiescent != nil {
			s.Quiescent(s.LastActivityAt())
		}
		t, ok := s.nextEventTime()
		if !ok {
			// Leave every clock where one engine's would stand, not at
			// the last horizon, for work between runs and the next Run.
			at := s.LastActivityAt()
			for _, e := range s.Engines {
				e.now = at
			}
			return
		}
		// filed restarts: barrier replay schedules at the last horizon
		// under barrier-lane keys, below any dispatched there.
		for _, e := range s.Engines {
			e.inRound, e.filed = true, key{}
		}
		b.horizon = t + s.Window - 1
		b.pending.Store(int64(k - 1))
		b.round.Add(1)
		for i := 1; i < k; i++ {
			b.wake(i)
		}
		s.Engines[0].RunUntil(b.horizon)
		s.Stats.Wait[0] += b.await(0, &b.pending, 0)
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
		var peak uint64
		for i, e := range s.Engines {
			e.inRound = false
			peak = max(peak, e.Processed()-last[i])
			last[i] = e.Processed()
		}
		s.Stats.Rounds++
		s.Stats.PeakDispatches += peak
	}
}

// busyShards counts the shard goroutines in the process that are not
// parked: every ShardSet's coordinator and workers, whether running,
// doing barrier work or polling. It is process-wide on purpose: an
// experiment sweep runs up to GOMAXPROCS machines at once, and a
// waiter may poll only while all of them together leave it a CPU.
var busyShards atomic.Int32

// yieldEvery is the number of polls between a waiter's Gosched calls,
// so that a goroutine it waits for, runnable but without a P, gets
// one within microseconds even when the count above is momentarily
// stale.
const yieldEvery = 1024

// spinFor bounds one wait's polling. A wait longer than this usually
// means the goroutine waited for lost its CPU to another process, and
// only parking, which blocks the thread, hands the CPU back. The bound
// sits well above an ordinary wait, which at 16×16 lasts a few to a
// few hundred microseconds, because a park costs a wake-up on the
// critical path: with a 50 µs bound a K=2 SSSP 16×16 run parked 500
// to 1 300 times, as often as the host's load made a wait run long,
// and its wall time varied with that count.
const spinFor = time.Millisecond

// barrier is the rendezvous of one Run. The coordinator
// publishes a round by setting horizon and pending, then bumping
// round; each worker runs the round once round reaches its next
// number and decrements pending when done. The atomics order the
// plain fields: what the coordinator writes before the bump, and what
// a worker writes before its decrement, the other side reads after
// seeing the new value.
type barrier struct {
	round   atomic.Int64 // rounds published; bumped once more to stop
	pending atomic.Int64 // workers still running the current round
	horizon Cycles       // the current round's last cycle
	stop    bool         // set before the final bump: workers exit
	procs   int32        // GOMAXPROCS when the Run began
	w       []waiter     // per engine; 0 is the coordinator
}

// waiter is one goroutine's parking slot. parked is set by the
// goroutine before it blocks on ch, and cleared by exactly one side:
// the waker, which then sends the single token ch holds, or the
// goroutine itself when it finds its condition met after all.
type waiter struct {
	parked atomic.Bool
	ch     chan struct{}
}

// await returns once v holds want, with the host time it waited. It
// polls, yielding every yieldEvery polls, while the process's busy
// shard goroutines fit in GOMAXPROCS and for at most spinFor;
// otherwise it parks until the goroutine that changes v wakes it.
func (b *barrier) await(i int, v *atomic.Int64, want int64) time.Duration {
	if v.Load() == want {
		return 0
	}
	began := time.Now()
	w := &b.w[i]
	for v.Load() != want {
		if busyShards.Load() <= b.procs && time.Since(began) < spinFor {
			for n := 0; n < yieldEvery; n++ {
				if v.Load() == want {
					return time.Since(began)
				}
			}
			runtime.Gosched()
			continue
		}
		busyShards.Add(-1)
		w.parked.Store(true)
		if v.Load() == want && w.parked.CompareAndSwap(true, false) {
			busyShards.Add(1)
			break
		}
		<-w.ch // the waker counted this goroutine busy again
	}
	return time.Since(began)
}

// wake unparks goroutine i if it is parked, and reports whether it
// was. Call it after changing the value i awaits.
func (b *barrier) wake(i int) bool {
	w := &b.w[i]
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		busyShards.Add(1)
		w.ch <- struct{}{}
		return true
	}
	return false
}

// runDeferred replays the finished round's Defer calls in the order
// one engine would have made them, then empties the logs. Each log is
// its engine's calls in execution order, and the merge repeatedly runs
// the head whose filing key is smallest. A serial engine's pop order
// is not key order: a dispatch can schedule a same-cycle event under a
// smaller key (a zero-delay wake on the sleeper's lane, made while
// dispatching a delivery keyed under the sender's lane), which runs
// right after it, before anything keyed above it. Calls are filed
// under their engine's largest key of the round (Engine.filed). The head
// merge is exact: once every engine's earlier calls have run, each
// engine's next dispatch was already queued (scheduled by earlier
// activity on its own engine; cross-engine scheduling happens only at
// barriers), so one engine's next pop is the smallest head.
// The merge takes each winner's calls in runs, up to the first that
// sorts after another engine's head. Heads of different engines never
// tie, since each lane's counter lives on one engine. No engine is in
// a round, so anything a replayed call defers in turn runs at once
// (the logs stay as they are), and every engine draws its keys from
// replaySeq. pos is scratch space, one slot per engine. A
// barrier with nothing to replay returns at once, without reading the
// host clock.
func (s *ShardSet) runDeferred(pos []int) {
	logged := 0
	for _, e := range s.Engines {
		logged += len(e.deferred)
	}
	if logged == 0 {
		return
	}
	began := time.Now()
	for _, e := range s.Engines {
		e.replaySeq = &s.replaySeq
	}
	clear(pos)
	for {
		// The engine with the smallest head wins, and keeps winning
		// for as long as its next call's key beats the runner-up head:
		// each call the run takes is one the head merge would have
		// picked. With one engine the whole log is one run.
		bi := -1
		var best, runnerUp *key
		for i, e := range s.Engines {
			if pos[i] == len(e.deferred) {
				continue
			}
			k := &e.deferred[pos[i]].at
			switch {
			case best == nil || k.less(*best):
				best, runnerUp, bi = k, best, i
			case runnerUp == nil || k.less(*runnerUp):
				runnerUp = k
			}
		}
		if best == nil {
			break
		}
		log := s.Engines[bi].deferred
		i := pos[bi]
		for {
			c := &log[i]
			i++
			s.Stats.Replayed++
			c.sink.HandleEvent(c.kind, c.data)
			if i == len(log) || runnerUp != nil && runnerUp.less(log[i].at) {
				break
			}
		}
		pos[bi] = i
	}
	for _, e := range s.Engines {
		e.replaySeq = nil
		clear(e.deferred)
		e.deferred = e.deferred[:0]
	}
	s.Stats.ReplayTime += time.Since(began)
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
// shards (the barrier's replay always runs before this, so queues are
// the complete picture).
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

package sim

// MergeByTag replays per-engine work queues in the exact order a
// single serial engine would have executed the work in, calling emit
// once per entry.
//
// Each queue must hold one engine's entries in that engine's execution
// order — append order for work logged during dispatches, restored
// with an EngineLess sort if barrier-replayed entries were appended
// out of place. The merge then repeatedly emits from the queue whose
// head carries the smallest dispatch key (Less).
//
// Why a head merge and not a flat sort: a serial engine's pop order is
// not a global key sort. An event scheduled during a dispatch can land
// in the same cycle under a smaller queue key (e.g. a zero-delay thread
// wake keyed under the sleeper's lane, created while dispatching a
// delivery keyed under the sender's lane); serial pops it after the
// dispatch that created it — the queue can only pop what exists — while
// a flat key sort would place it before. Head-merging is exact: when
// every engine's earlier work has been emitted, each engine's next
// dispatch is already sitting in the serial queue (it was scheduled by
// strictly earlier activity on its own engine — cross-engine
// scheduling happens only at barriers), so the serial queue's next pop
// is precisely the minimum of the queue heads' keys.
func MergeByTag[T any](queues [][]T, tag func(*T) DispatchTag, emit func(*T)) {
	pos := make([]int, len(queues))
	for {
		best := -1
		for q := range queues {
			if pos[q] == len(queues[q]) {
				continue
			}
			if best < 0 || tag(&queues[q][pos[q]]).Less(tag(&queues[best][pos[best]])) {
				best = q
			}
		}
		if best < 0 {
			return
		}
		emit(&queues[best][pos[best]])
		pos[best]++
	}
}

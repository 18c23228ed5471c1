package coherence

import (
	"plus/internal/memory"
	"plus/internal/timing"
)

// Write-invalidate ablation mode.
//
// Section 2.2 of the paper argues that, in a distributed-memory
// machine, updating remote copies beats invalidating them: "since
// latency in moving data is much larger in distributed-memory systems
// than in bus-based systems, using a protocol that does not invalidate
// other copies, but instead updates them, is very useful in minimizing
// the cost of cache misses." This file implements the alternative so
// the claim can be measured: in invalidate mode a write still takes
// effect at the master first, but instead of carrying the new data
// down the copy-list, a word-granular invalidation travels the same
// route; a later read of an invalidated word at a replica misses and
// re-fetches the word from the master, repairing the replica.
//
// The mode reuses the whole routing/ack machinery; only the payload
// semantics differ. It exists purely for the ablation benches —
// real PLUS is update-only.

// SetInvalidateMode switches this CM between write-update (PLUS) and
// write-invalidate (ablation) behaviour. All CMs in a machine must
// agree. Must be set before any traffic.
func (cm *CM) SetInvalidateMode(on bool) { cm.invalidateMode = on }

// invalidATE bookkeeping: stale words per local frame.
func (cm *CM) markInvalid(frame memory.PPage, off uint32) {
	if cm.invalid == nil {
		cm.invalid = make(map[memory.PPage]map[uint32]bool)
	}
	ws := cm.invalid[frame]
	if ws == nil {
		ws = make(map[uint32]bool)
		cm.invalid[frame] = ws
	}
	ws[off] = true
	cm.st.Nodes[cm.self].Invalidations++
}

func (cm *CM) isInvalid(frame memory.PPage, off uint32) bool {
	ws, ok := cm.invalid[frame]
	return ok && ws[off&memory.OffMask]
}

// repair installs a fresh master value in an invalidated replica word.
func (cm *CM) repair(frame memory.PPage, off uint32, v memory.Word) {
	cm.mem.Write(frame, off, v)
	if ws, ok := cm.invalid[frame]; ok {
		delete(ws, off&memory.OffMask)
	}
}

// applyInvalidations marks the written words stale at a replica
// (invalidate-mode counterpart of applyWrites for kUpdate messages)
// and drops their lines from the processor cache, so a later read of
// another word in such a line refills it from local memory.
func (cm *CM) applyInvalidations(frame memory.PPage, ws []wordWrite) {
	for _, w := range ws {
		cm.markInvalid(frame, w.Off)
		cm.ca.Drop(frame, w.Off)
	}
}

// readInvalidated services a local read that hit a stale word: fetch
// the word from the master copy, repair the replica, and deliver. The
// cost is exactly a remote blocking read — the §2.2 "cost of cache
// misses" the update protocol avoids. It returns the refetch's causal
// ID, as Read does.
func (cm *CM) readInvalidated(g GAddr, done func(memory.Word)) uint64 {
	e, ok := cm.entry(g.Page)
	mg := e.master
	if !ok || mg.Node == cm.self {
		// Master local: nothing can be stale here.
		cm.scheduleReadDone(timing.LocalMemRead, done, cm.mem.Read(g.Page, g.Off))
		return 0
	}
	cm.node().InvalidateMisses++
	return cm.remoteRead(GAddr{Node: mg.Node, Page: mg.Page, Off: g.Off}, func(v memory.Word) {
		cm.repair(g.Page, g.Off, v)
		done(v)
	})
}

// Crash & failover support for the coherence manager (crash-script
// runs only; see mesh.FaultConfig.Crashes).
//
// Crash semantics, per PROTOCOL.md "Crash & failover":
//
//   - Crash() models power loss: every in-flight message the node owns
//     (parked retransmit clones, staged sends, requests being
//     processed) is dropped and the combine buffer's words are lost.
//   - Detection is the transport's retransmit escalation: a peer whose
//     timer expires detectStrikes times in a row with no acknowledged
//     progress is handed to the kernel, which confirms the suspicion
//     out-of-band (a management-network probe stand-in) before it runs
//     the failover epoch.
//   - Failover() is one live node's part of that epoch: parked
//     requests toward the dead node are rerouted to each page's new
//     master, truncated update chains are completed administratively,
//     the transport pair is reset, wakes for the dead node's sleepers
//     are re-sent to await its restart, and operations whose state died
//     inside the crashed node are force-retired or re-issued so no
//     originator is stranded.
//   - Restart() models the reboot: the transport pairs restart in a
//     new incarnation, the volatile master/next tables are gone (the
//     kernel re-replicates the node's pages as it rejoins),
//     pending writes are force-retired with lost-write semantics, and
//     still-outstanding reads and delayed ops are re-issued.
//
// Everything here is gated on cm.crashy, set only when the run has a
// crash script: ordinary runs never reach these paths and keep their
// loud protocol panics.

package coherence

import (
	"fmt"
	"sort"

	"plus/internal/memory"
	"plus/internal/mesh"
)

// FailoverRouter is the kernel's side of crash recovery. RerouteFrame
// resolves where traffic addressed to a crashed node's lost frame
// should go now: the current master of the page that frame held; ok is
// false when (owner, frame) was never lost to a crash. Suspect takes a
// peer a transport suspects; the epoch runs at the next barrier.
// PairBase is the sequence number the pair (a, b) restarts from.
type FailoverRouter interface {
	RerouteFrame(owner mesh.NodeID, frame memory.PPage) (memory.GPage, bool)
	Suspect(by, dead mesh.NodeID)
	PairBase(a, b mesh.NodeID) uint64
}

// detectStrikes is the crash-detection threshold: consecutive
// retransmission timeouts to one peer, with no acknowledged progress,
// after which the transport suspects the peer has crashed.
const detectStrikes = 3

// ArmCrashRecovery wires the kernel's reroute table and crash
// suspicion. Called once at machine build on crash-script runs.
func (cm *CM) ArmCrashRecovery(router FailoverRouter) { cm.router = router }

// Down reports whether this node is currently crashed.
func (cm *CM) Down() bool { return cm.down }

// slotToken encodes a delayed-op slot for the wire: the slot index in
// the low 16 bits and the slot's generation above them, so a reply to
// a re-issued (or force-completed) operation cannot corrupt a reused
// slot.
func (cm *CM) slotToken(slot int) uint64 {
	return uint64(slot) | cm.slots[slot].gen<<16
}

// slotFromToken decodes a wire token. A token whose slot is free or was
// reused under a new generation is stale: on crash-script runs (a late
// reply to a re-issued or force-completed operation) ok is false and
// the caller drops it; on any other run it is a protocol fault.
func (cm *CM) slotFromToken(tok uint64) (int, bool) {
	slot := int(tok & 0xffff)
	if slot < len(cm.slots) && cm.slots[slot].busy && cm.slots[slot].gen == tok>>16 {
		return slot, true
	}
	if !cm.crashy {
		panic(fmt.Sprintf("coherence: result for stale delayed-operation token %#x on node %d", tok, cm.self))
	}
	return 0, false
}

// reroute resolves where traffic addressed to owner's frame goes after
// a crash: the current master of the page the frame held. ok is false
// when the frame was never lost to a crash.
func (cm *CM) reroute(owner mesh.NodeID, frame memory.PPage) (memory.GPage, bool) {
	if cm.router == nil {
		return memory.GPage{}, false
	}
	return cm.router.RerouteFrame(owner, frame)
}

// Crash takes the node down at the current instant. The mesh stops
// delivering to (and accepting sends from) the node, the processor
// layer pauses dispatch; this function kills the volatile transport
// and combining state that an outage destroys. The master/next tables
// survive until Restart — a node that never restarts within the run
// simply keeps them frozen, like real battery-backed SRAM would not.
func (cm *CM) Crash() {
	cm.down = true
	for i := range cm.tx {
		tx := &cm.tx[i]
		for _, c := range tx.queue {
			if c.Kind == kPageCopy && c.Done != nil {
				// Complete a mid-flight page copy administratively so
				// the kernel's copy engine is not stranded; the data
				// never landed, which the rejoin re-replication fixes.
				cm.st.CrashOrphans++
				c.Done()
			}
			cm.freeMsg(c)
		}
		tx.queue = tx.queue[:0]
		tx.epoch++ // cancels in-flight retransmit timers
	}
	// The combine buffer's words are lost with the node; their pending
	// entries force-retire at Restart.
	cm.bwrites = cm.bwrites[:0]
	cm.bids = cm.bids[:0]
	cm.bcause = 0
}

// Restart brings the node back up with its volatile CM state lost:
// empty mapping tables (the kernel re-replicates pages as the node
// rejoins), force-retired pending writes (lost-write semantics — the
// write may or may not have reached the surviving copies, and the
// restarted node can no longer wait on acks addressed to its previous
// incarnation), and re-issued reads and delayed operations.
func (cm *CM) Restart() {
	cm.down = false
	for i := range cm.tx {
		cm.resetPair(mesh.NodeID(i))
	}
	clear(cm.frames)
	cm.forceRetire(func(pendingWrite) bool { return true })
	cm.reissueReads(func(readWaiter) bool { return true })
	for i := range cm.slots {
		if cm.slots[i].busy && !cm.slots[i].ready {
			cm.reissueRMW(i)
		}
	}
}

// Failover runs this (live) node's part of the kernel's failover epoch
// for dead. affected reports whether an address belongs to a page that
// lost a copy to the crash; the kernel builds it from the copy lists
// as they stood before the rewrite. Must be called after the kernel
// has promoted masters and rewritten the surviving chain, so reroutes
// resolve to the new topology.
func (cm *CM) Failover(dead mesh.NodeID, affected func(GAddr) bool) {
	queue := cm.tx[dead].queue
	cm.tx[dead].queue = nil
	cm.resetPair(dead)

	// resent tracks operations whose request was parked toward the
	// dead node and is re-sent below: those must not also be
	// force-retired or re-issued by the sweep that follows.
	resentPids := make(map[uint64]bool)
	resentSlots := make(map[uint64]bool)
	resentReads := make(map[uint64]bool)
	for _, c := range queue {
		c.Seq, c.Nacked = 0, false
		switch c.Kind {
		case kReadReq:
			i := cm.readWaiterIndex(c.ID)
			g, ok := cm.reroute(dead, c.Page)
			if i < 0 || !ok {
				cm.st.CrashOrphans++
				cm.freeMsg(c)
				continue
			}
			resentReads[c.ID] = true
			cm.st.RedirectedMsgs++
			if g.Node == cm.self {
				w := cm.dropReadWaiter(i)
				cm.freeMsg(c)
				cm.scheduleReadDone(cm.ca.Read(g.Page, w.g.Off), w.fn, cm.mem.Read(g.Page, w.g.Off))
				continue
			}
			c.Page = g.Page
			cm.send(g.Node, c)
		case kWriteReq, kRMWReq:
			g, ok := cm.reroute(dead, c.Page)
			if !ok {
				cm.st.CrashOrphans++
				cm.freeMsg(c)
				continue
			}
			if c.Kind == kWriteReq {
				resentPids[c.ID] = true
			} else {
				resentSlots[c.ID] = true
				if c.Pid != 0 {
					resentPids[c.Pid] = true
				}
			}
			cm.st.RedirectedMsgs++
			c.Page = g.Page
			cm.handOff(g.Node, c)
		case kUpdate:
			// The chain is truncated at the dead node: this copy is now
			// effectively the end of the list for this modification (the
			// kernel's resync cascade restores downstream copies), so
			// acknowledge the originator.
			cm.st.CrashOrphans++
			if c.Origin == dead {
				cm.freeMsg(c)
				continue
			}
			cm.ackOrigin(c)
		case kPageCopy:
			// A replication racing the target's crash: complete the copy
			// engine administratively; the rejoin re-replicates the page.
			cm.st.CrashOrphans++
			if c.Done != nil {
				c.Done()
			}
			cm.freeMsg(c)
		case kWake:
			// The sleeper's thread outlives the outage (its processor
			// only pauses), so its wake must too: re-send it under the
			// reset pair. It retransmits until the node restarts, then
			// wakes the thread like any late wake.
			cm.send(dead, c)
		case kAck, kReadReply, kRMWReply:
			// Completions addressed to state that died with the node.
			cm.st.CrashOrphans++
			cm.freeMsg(c)
		default:
			panic(fmt.Sprintf("coherence: failover of unexpected parked kind %d on node %d", c.Kind, cm.self))
		}
	}

	// Re-issue unresolved delayed ops on affected pages first, so their
	// pending entries are marked resent before the force-retire sweep.
	for i := range cm.slots {
		s := &cm.slots[i]
		if s.busy && !s.ready && affected(s.g) && !resentSlots[cm.slotToken(i)] {
			if s.pid != 0 {
				resentPids[s.pid] = true
			}
			cm.reissueRMW(i)
		}
	}
	// Re-issue outstanding reads addressed to the dead node, skipping
	// those already re-sent from the parked queue above.
	cm.reissueReads(func(w readWaiter) bool {
		return w.g.Node == dead && !resentReads[w.id]
	})
	// Force-retire pending writes to affected pages whose request or
	// update may have died inside the crashed node. A write that was in
	// fact still propagating among live copies delivers a stale ack
	// later, which finishWrite tolerates on crash runs.
	cm.forceRetire(func(p pendingWrite) bool {
		return affected(p.g) && !resentPids[p.id]
	})
}

// resetPair restarts the transport pair with peer (the peer does too,
// in its Failover or Restart) above every sequence number its earlier
// incarnations used, so their stragglers read as duplicates.
func (cm *CM) resetPair(peer mesh.NodeID) {
	tx := &cm.tx[peer]
	tx.epoch++
	tx.nextSeq = cm.router.PairBase(cm.self, peer)
	tx.rto = 0
	tx.strikes = 0
	cm.rx[peer].acked = tx.nextSeq
}

// forceRetire retires every pending write selected by keep, counting
// each as a forced retire. Deterministic: writes are retired in id
// order, and a batch member its lead id already retired is skipped.
func (cm *CM) forceRetire(keep func(pendingWrite) bool) {
	if len(cm.pending) == 0 {
		return
	}
	ids := make([]uint64, 0, len(cm.pending))
	for _, p := range cm.pending {
		if keep(p) {
			ids = append(ids, p.id)
		}
	}
	sortIDs(ids)
	for _, id := range ids {
		if cm.pendingIndex(id) < 0 {
			continue // batch member retired by its lead id
		}
		cm.st.ForcedRetires++
		cm.retireWrite(id)
	}
}

// reissueReads re-sends every outstanding remote read selected by keep,
// rerouting reads whose target frame was lost. Deterministic: waiters
// are processed in id order.
func (cm *CM) reissueReads(keep func(readWaiter) bool) {
	if len(cm.readWaiters) == 0 {
		return
	}
	ids := make([]uint64, 0, len(cm.readWaiters))
	for _, w := range cm.readWaiters {
		if keep(w) {
			ids = append(ids, w.id)
		}
	}
	sortIDs(ids)
	for _, id := range ids {
		cm.reissueRead(id)
	}
}

// reissueRead re-sends one outstanding remote read (same id, so the
// waiter and any trace records carry over), following the reroute
// table if the target frame was lost to a crash. A reroute that lands
// on this node is served locally.
func (cm *CM) reissueRead(id uint64) {
	i := cm.readWaiterIndex(id)
	w := cm.readWaiters[i]
	cm.st.ReissuedOps++
	g := w.g
	if ng, ok := cm.reroute(g.Node, g.Page); ok {
		g = GAddr{Node: ng.Node, Page: ng.Page, Off: g.Off}
	}
	if g.Node == cm.self {
		cm.dropReadWaiter(i)
		cm.scheduleReadDone(cm.ca.Read(g.Page, g.Off), w.fn, cm.mem.Read(g.Page, g.Off))
		return
	}
	m := cm.newMsg(kReadReq, cm.self, id)
	m.Page, m.Off = g.Page, g.Off
	cm.send(g.Node, m)
}

// reissueRMW re-sends an unresolved delayed operation from its slot's
// replay record under the same generation token, rerouting if its
// master's frame was lost. The operation may in fact still execute
// from the original request — a delayed op can therefore apply twice
// across a crash epoch, which PROTOCOL.md documents as the price of
// liveness (the stale reply itself is rejected by the token).
func (cm *CM) reissueRMW(slot int) {
	s := &cm.slots[slot]
	cm.st.ReissuedOps++
	g := s.g
	if ng, ok := cm.reroute(g.Node, g.Page); ok {
		g = GAddr{Node: ng.Node, Page: ng.Page, Off: g.Off}
	}
	m := cm.newMsg(kRMWReq, cm.self, cm.slotToken(slot))
	m.Pid = s.pid
	m.Op = s.op
	m.Page, m.Off, m.Val = g.Page, g.Off, s.operand
	cm.handOff(g.Node, m)
}

// orphanRequest handles a write/RMW request addressed to a frame this
// node no longer maps (its tables were lost in a crash): reroute it to
// the page's current master when the kernel still knows one, otherwise
// complete it as lost so no originator is stranded.
func (cm *CM) orphanRequest(m *mesh.Msg) {
	cm.st.CrashOrphans++
	if g, ok := cm.reroute(cm.self, m.Page); ok {
		cm.st.RedirectedMsgs++
		m.Page = g.Page
		cm.handOff(g.Node, m)
		return
	}
	if m.Kind == kRMWReq {
		// Reply with a lost result so a Verify never hangs; the slot
		// token rejects it if the op was meanwhile re-issued elsewhere.
		if m.Origin == cm.self {
			if slot, ok := cm.slotFromToken(m.ID); ok {
				cm.fillSlot(slot, 0)
			}
			pid := m.Pid
			cm.freeMsg(m)
			cm.retireWrite(pid)
			return
		}
		m.Kind = kRMWReply
		m.Val, m.Complete = 0, true
		cm.send(m.Origin, m)
		return
	}
	// A lost write: acknowledge the originator so its fence makes
	// progress (the data is gone — lost-write semantics).
	cm.ackOrigin(m)
}

// sortIDs sorts operation ids ascending — every crash-epoch sweep over
// the unordered pending-writes cache or outstanding reads walks them in
// this order so recovery stays deterministic.
func sortIDs(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

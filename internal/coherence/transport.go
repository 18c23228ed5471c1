// The reliability sublayer: an end-to-end ack/retransmit transport
// that makes every coherence-protocol hop survive the unreliable
// network mode (message loss, duplication, reordering delay, and
// bounded-buffer NACKs — see mesh.FaultConfig).
//
// Design, per PROTOCOL.md "Reliability sublayer":
//
//   - Every protocol message a CM sends to a peer is stamped with a
//     per-(sender, receiver) sequence number (Msg.Seq, starting at 1)
//     and a deep copy is parked in the sender's retransmit queue.
//   - The receiver accepts only the next in-order sequence from each
//     peer, which both deduplicates spurious copies and restores the
//     FIFO delivery the update chain depends on. Anything else —
//     duplicates and out-of-order survivors of a loss — is dropped and
//     the current cumulative ack re-sent (go-back-N).
//   - Every in-order delivery is acknowledged with a cumulative kTAck.
//     Acks are unsequenced; a lost ack is recovered by the sender's
//     timer and the receiver's re-ack of the resulting duplicates.
//   - A per-destination retransmit timer (base timing.RetransTimeout)
//     re-sends the whole unacknowledged window on expiry, doubling the
//     timeout up to maxBackoff times base. A back-pressure NACK from
//     the mesh is treated as an early timeout with the same backoff.
//
// With the fault model off the sublayer is completely inert: no
// sequence numbers are stamped, no acks or timers exist, and the wire
// behaviour is bit-identical to the reliable network.
package coherence

import (
	"fmt"

	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// maxBackoff caps the exponential retransmit backoff at
// maxBackoff * timing.RetransTimeout.
const maxBackoff = 16

// txState is the sender half of one (self, dst) pair: the sequence
// counter, the unacknowledged window (deep copies, in sequence order)
// and the retransmit timer state.
type txState struct {
	nextSeq uint64
	queue   []*mesh.Msg
	// rto is the current retransmit timeout (exponential backoff).
	rto sim.Cycles
	// epoch invalidates in-flight timer events: the engine cannot
	// cancel a scheduled event, so each (re)arm bumps the epoch and a
	// firing timer with a stale epoch is a no-op.
	epoch uint64
	// strikes counts consecutive retransmit-timer expirations without
	// any acknowledged progress from this peer; crash-detection
	// escalation (crash.go) fires when it reaches the configured
	// threshold. Unused (never incremented) without a crash script.
	strikes int
}

// rxState is the receiver half: the highest in-order sequence number
// delivered from one peer.
type rxState struct {
	acked uint64
}

// retransTimer is the pooled payload of a ckRetrans event.
type retransTimer struct {
	dst   mesh.NodeID
	epoch uint64
}

// transportSend stamps m with the next sequence number for dst, parks
// a retransmit copy, and injects the original into the network.
func (cm *CM) transportSend(dst mesh.NodeID, m *mesh.Msg) {
	tx := &cm.tx[dst]
	tx.nextSeq++
	m.Seq = tx.nextSeq
	c := cm.net.CloneMsgAt(cm.self, m)
	c.Dst = dst
	tx.queue = append(tx.queue, c)
	if len(tx.queue) == 1 {
		tx.rto = timing.RetransTimeout
		cm.armRetrans(dst, tx.rto)
	}
	cm.net.Send(cm.self, dst, flits(m), m)
}

// transportAccept filters an arriving sequenced message: true means
// in-order (the caller processes it), false means the message was a
// duplicate or an out-of-order survivor and has been recycled. Either
// way the current cumulative ack returns to the hop sender.
func (cm *CM) transportAccept(m *mesh.Msg) bool {
	rx := &cm.rx[m.Src]
	src := m.Src
	if m.Seq == rx.acked+1 {
		rx.acked = m.Seq
		cm.sendTAck(src, rx.acked)
		return true
	}
	if m.Seq <= rx.acked {
		cm.st.TransDups++
	} else {
		cm.st.TransGaps++
	}
	cm.freeMsg(m)
	// Re-ack so a lost kTAck does not strand the sender until its
	// timer; for a gap the cumulative ack is still useful (it may
	// retire earlier messages whose acks were lost).
	cm.sendTAck(src, rx.acked)
	return false
}

// transportAck retires the unacknowledged window up to the cumulative
// sequence number carried by a kTAck.
func (cm *CM) transportAck(m *mesh.Msg) {
	peer := m.Src
	cum := m.Seq
	cm.freeMsg(m)
	tx := &cm.tx[peer]
	n := 0
	for n < len(tx.queue) && tx.queue[n].Seq <= cum {
		cm.freeMsg(tx.queue[n])
		tx.queue[n] = nil
		n++
	}
	if n == 0 {
		return // stale or duplicate ack
	}
	tx.queue = append(tx.queue[:0], tx.queue[n:]...)
	tx.epoch++ // cancel the outstanding timer
	tx.rto = timing.RetransTimeout
	tx.strikes = 0 // acknowledged progress: the peer is alive
	if len(tx.queue) > 0 {
		cm.armRetrans(peer, tx.rto)
	}
}

// transportNack absorbs a message bounced by a full link buffer: the
// bounced copy is recycled (the retransmit queue still holds its own)
// and the pair backs off before re-sending, like an early timeout.
func (cm *CM) transportNack(m *mesh.Msg) {
	if m.Kind == kTAck {
		// A bounced transport ack is simply lost; the next duplicate
		// arrival regenerates it.
		cm.freeMsg(m)
		return
	}
	if !cm.reliable {
		panic(fmt.Sprintf("coherence: NACK of kind %d on node %d with the reliability sublayer off", m.Kind, cm.self))
	}
	dst := m.Dst
	cm.st.TransStalls++
	cm.freeMsg(m)
	tx := &cm.tx[dst]
	if len(tx.queue) == 0 {
		return // already acknowledged via an earlier (re)transmission
	}
	cm.armRetrans(dst, tx.rto)
	if tx.rto < maxBackoff*timing.RetransTimeout {
		tx.rto *= 2
	}
	if o := cm.obs(); o != nil {
		o.Emit(stats.EvBackoff, int(cm.self), 1, 0, uint64(dst), uint64(tx.rto))
	}
}

// fireRetrans is the ckRetrans handler: if the timer is still current,
// re-send the whole unacknowledged window (go-back-N — the receiver
// discarded everything after the loss) and back off.
func (cm *CM) fireRetrans(tk *retransTimer) {
	tx := &cm.tx[tk.dst]
	live := tk.epoch == tx.epoch
	cm.rtFree = append(cm.rtFree, tk)
	if !live || len(tx.queue) == 0 {
		return
	}
	o := cm.obs()
	for _, c := range tx.queue {
		cm.st.Retransmits++
		if o != nil {
			o.Emit(stats.EvRetransmit, int(cm.self), c.Kind, c.Cause, uint64(tk.dst), c.Seq)
		}
		cm.net.Send(cm.self, tk.dst, flits(c), cm.net.CloneMsgAt(cm.self, c))
	}
	if tx.rto < maxBackoff*timing.RetransTimeout {
		tx.rto *= 2
	}
	cm.armRetrans(tk.dst, tx.rto)
	if o != nil {
		o.Emit(stats.EvBackoff, int(cm.self), 0, 0, uint64(tk.dst), uint64(tx.rto))
	}
	// Crash-detection escalation (crash script runs only): after
	// detectStrikes consecutive expirations with zero progress, hand
	// the peer to the kernel.
	if cm.router != nil {
		tx.strikes++
		if tx.strikes >= detectStrikes {
			tx.strikes = 0
			cm.router.Suspect(cm.self, tk.dst)
		}
	}
}

// armRetrans schedules the retransmit timer for dst after delay,
// superseding any timer already in flight for the pair.
func (cm *CM) armRetrans(dst mesh.NodeID, delay sim.Cycles) {
	tx := &cm.tx[dst]
	tx.epoch++
	var tk *retransTimer
	if n := len(cm.rtFree); n > 0 {
		tk = cm.rtFree[n-1]
		cm.rtFree = cm.rtFree[:n-1]
	} else {
		tk = &retransTimer{}
	}
	tk.dst, tk.epoch = dst, tx.epoch
	cm.eng.ScheduleEvent(delay, cm, ckRetrans, tk)
}

// sendTAck returns a cumulative transport ack to a peer.
func (cm *CM) sendTAck(dst mesh.NodeID, cum uint64) {
	a := cm.net.AllocMsgAt(cm.self)
	a.Kind = kTAck
	a.Origin = cm.self
	a.Seq = cum
	cm.send(dst, a)
}

// TransportIdle reports whether every retransmit queue is empty — all
// sequenced messages this node ever sent have been acknowledged. Part
// of the quiescence predicate of core's InvariantChecker.
func (cm *CM) TransportIdle() bool {
	for i := range cm.tx {
		if len(cm.tx[i].queue) > 0 {
			return false
		}
	}
	return true
}

// UnresolvedSlots returns the number of delayed-operation slots whose
// result has not yet arrived (busy and not ready): operations that may
// still mutate memory somewhere in the machine. Slots holding an
// unconsumed result do not count — their effects are tracked by the
// pending-writes cache until fully propagated.
func (cm *CM) UnresolvedSlots() int {
	n := 0
	for i := range cm.slots {
		if cm.slots[i].busy && !cm.slots[i].ready {
			n++
		}
	}
	return n
}

package coherence

import (
	"plus/internal/memory"
	"plus/internal/mesh"
)

// Write combining (Timing.MaxBatchWrites > 1): consecutive writes from
// this node to the same (node, page) destination coalesce in a combine
// buffer and travel as one multi-word kWriteReq whose flit cost scales
// with the word count, then walk the copy-list as one kUpdate and are
// acknowledged once for the whole batch.
//
// The combine buffer changes message traffic, never semantics:
//
//   - Every buffered word allocates its pending-writes cache entry at
//     issue, so MaxPendingWrites, the read-blocking rule and Fence see
//     combined writes exactly like uncombined ones — wait-on-write
//     still blocks on exactly the words written.
//   - Word order within a batch is issue order, and batches to one
//     page flush in issue order over one FIFO (and go-back-N–ordered)
//     source→master path, so every copy still applies each location's
//     writes in a single global order (general coherence).
//   - Flush triggers: destination page change, batch full, a full
//     pending-writes cache (the waiting writer needs the buffered
//     acks), fence, delayed-operation issue, verify, any read issued
//     by this node (reads are combine barriers), and the processor
//     layer's park/exit points. A batch therefore never outlives the
//     operation stream that could observe it; the invariant checker
//     treats a non-empty buffer as non-quiescent and core.Machine.Run
//     fails if one survives the run.
//
// Every write passes through the buffer (CM.Write). At the default
// depth of one word (MaxBatchWrites 1) the buffer flushes as soon as
// its one word is in, so each write travels alone; the batch-size
// histogram then records nothing.

// FlushBatch sends the combine buffer's contents as one kWriteReq (a
// no-op when the buffer is empty). The message carries the lead
// member's pending id; batchIDs remembers the rest so the single ack
// retires every member.
func (cm *CM) FlushBatch() {
	if len(cm.bwrites) == 0 {
		return
	}
	m := cm.newMsg(kWriteReq, cm.self, cm.bids[0])
	m.Page = cm.bpage
	m.Cause = cm.bcause
	m.Writes = append(m.Writes[:0], cm.bwrites...)
	if len(cm.bids) > 1 {
		var ids []uint64
		if n := len(cm.idsFree); n > 0 {
			ids = cm.idsFree[n-1]
			cm.idsFree = cm.idsFree[:n-1]
		}
		cm.batchIDs[m.ID] = append(ids, cm.bids...)
	}
	if o := cm.obs(); o != nil && cm.batchMax > 1 {
		o.Metrics.BatchSize.Observe(uint64(len(cm.bwrites)))
	}
	dst := cm.bnode
	cm.bwrites = cm.bwrites[:0]
	cm.bids = cm.bids[:0]
	cm.bcause = 0
	cm.handOff(dst, m)
}

// retireWrite handles a write acknowledgement: a batch lead id retires
// every member of its batch, any other id is a plain single write, and
// id 0 (a delayed operation that carries no pending-writes entry)
// retires nothing.
func (cm *CM) retireWrite(id uint64) {
	if id == 0 {
		return
	}
	if ids, ok := cm.batchIDs[id]; ok {
		delete(cm.batchIDs, id)
		for _, wid := range ids {
			cm.finishWrite(wid)
		}
		cm.idsFree = append(cm.idsFree, ids[:0])
		return
	}
	cm.finishWrite(id)
}

// BufferedWrites returns the number of words resting in the combine
// buffer — writes issued but not yet flushed into the protocol. The
// invariant checker requires zero at quiescence and end-of-run.
func (cm *CM) BufferedWrites() int { return len(cm.bwrites) }

// BatchTarget reports the open combine buffer's destination, for
// tests. ok is false when the buffer is empty.
func (cm *CM) BatchTarget() (node mesh.NodeID, page memory.PPage, ok bool) {
	return cm.bnode, cm.bpage, len(cm.bwrites) > 0
}

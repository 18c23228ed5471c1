// Package timing holds the cycle costs of the simulated PLUS machine:
// the fixed hardware numbers as package constants, and the three cache
// depths the ablations sweep in the Timing table.
//
// Constants taken from the paper are marked [paper]; values the paper
// leaves unstated are chosen to be plausible for 1990 hardware and are
// marked [chosen]. The network's latency constants live with the mesh
// (internal/mesh: Base, PerHop, FlitCycles).
package timing

import "plus/internal/sim"

// CycleNs converts cycles to wall-clock time: one cycle is 40 ns in
// the PLUS implementation (25 MHz M88000). [paper: 40]
const CycleNs = 40

// Processor and coherence-manager costs.
const (
	// DelayedIssue is the processor cost to issue a delayed operation.
	// [paper §3.1: "approximately 25 cycles"]
	DelayedIssue sim.Cycles = 25
	// ResultRead is the processor cost to read a delayed-op result that
	// has already arrived. [paper §3.1: "about 10 cycles"]
	ResultRead sim.Cycles = 10
	// RemoteReadOverhead is the non-network cost of a remote blocking
	// read. [paper §3.1: "about 32 cycles plus the round-trip delay"]
	RemoteReadOverhead sim.Cycles = 32
	// RMWSimple is the coherence-manager execution time of xchng,
	// cond-xchng, fetch-and-add, fetch-and-set and delayed-read.
	// [paper Table 3-1: 39]
	RMWSimple sim.Cycles = 39
	// RMWComplex is the coherence-manager execution time of queue,
	// dequeue and min-xchng. [paper Table 3-1: 52]
	RMWComplex sim.Cycles = 52

	// CacheHit is the processor-cache hit time. [chosen: 1]
	CacheHit sim.Cycles = 1
	// CacheLineFill is a four-word line fetch from local memory.
	// [paper §3.4 assumption: 15]
	CacheLineFill sim.Cycles = 15
	// LocalMemRead is an uncached single-word read of local memory by
	// the coherence manager or processor. [chosen: 6]
	LocalMemRead sim.Cycles = 6
	// WriteIssue is the processor cost to post a (non-blocking) write
	// to the coherence manager. [chosen: 2]
	WriteIssue sim.Cycles = 2
	// CMProcess is the coherence-manager handling cost of one
	// write/update/read-request hop. [chosen: 8]
	CMProcess sim.Cycles = 8
	// RetransTimeout is the reliability sublayer's base retransmission
	// timeout in unreliable-network mode: how long a sender waits for a
	// transport ack before re-sending its unacknowledged messages. It
	// doubles on every timeout or back-pressure NACK (exponential
	// backoff, capped at 16x base). Unused on a reliable network.
	// [chosen: 512 — comfortably above the worst uncontended round trip
	// plus coherence-manager processing]
	RetransTimeout sim.Cycles = 512

	// PageFault is the kernel cost of a lazy page-table fill: checking
	// the centralized map and updating the local tables (§2.4).
	// [chosen: 2000]
	PageFault sim.Cycles = 2000
	// TLBRefill is the hardware page-table walk on a TLB miss that
	// hits the local page table. [chosen: 20]
	TLBRefill sim.Cycles = 20
	// PageCopyPerWord is the hardware page-copy engine's pipelined cost
	// per word when replicating a page in the background. [chosen: 4]
	PageCopyPerWord sim.Cycles = 4
)

// MaxQueueSize is the hardware queue wrap modulus in words for the
// queue/dequeue operations; queue slots occupy page offsets
// 0..MaxQueueSize-1 and control words live above them. [chosen: 512;
// the paper says only "(modulo maximum queue size)"]
const MaxQueueSize = 512

// Timing holds the machine's cache depths, the only costs the
// ablations vary.
type Timing struct {
	// MaxPendingWrites is the pending-writes cache depth: writes a node
	// may have in flight before the processor stalls. [paper §5: 8]
	MaxPendingWrites int
	// MaxBatchWrites is the write-combining depth: how many consecutive
	// same-page word writes the coherence manager may coalesce into one
	// multi-word update message before flushing. 1 disables combining
	// and reproduces the paper's one-message-per-write behaviour
	// exactly. [chosen: 1 — the 1990 hardware did not combine; the
	// batching ablation sweeps this]
	MaxBatchWrites int
	// MaxDelayedOps is the delayed-operations cache depth. [paper §5: 8]
	MaxDelayedOps int
}

// Default returns the paper's cache depths.
func Default() Timing {
	return Timing{
		MaxPendingWrites: 8,
		MaxBatchWrites:   1,
		MaxDelayedOps:    8,
	}
}

// Validate reports whether the table is internally consistent.
func (t Timing) Validate() error {
	switch {
	case t.MaxPendingWrites < 1:
		return errTiming("MaxPendingWrites must be >= 1")
	case t.MaxBatchWrites < 1:
		return errTiming("MaxBatchWrites must be >= 1")
	case t.MaxDelayedOps < 1:
		return errTiming("MaxDelayedOps must be >= 1")
	}
	return nil
}

type errTiming string

func (e errTiming) Error() string { return "timing: " + string(e) }

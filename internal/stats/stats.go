// Package stats instruments the simulated machine exactly the way the
// paper's simulator did: "Caching, coherence management, routing and
// memory access are simulated and instrumented in detail" (§2.5).
// Table 2-1 and Figures 2-1/3-1 are computed from these counters.
package stats

import "plus/internal/sim"

// Node holds one node's memory-system counters. The JSON tags let
// experiment rows embed a counter block (or the Totals sum) directly
// in plusbench's uniform -json output.
type Node struct {
	LocalReads   uint64 `json:"local_reads"`   // reads satisfied by local memory (or its cache)
	RemoteReads  uint64 `json:"remote_reads"`  // blocking reads sent over the network
	LocalWrites  uint64 `json:"local_writes"`  // writes whose master copy is local
	RemoteWrites uint64 `json:"remote_writes"` // writes sent to a remote master
	Updates      uint64 `json:"updates"`       // update requests applied at this node's copies
	// CoalescedWrites counts words that joined an already-open write
	// combine buffer — writes that rode an earlier write's message
	// instead of paying for their own (nonzero only with
	// Timing.MaxBatchWrites > 1).
	CoalescedWrites uint64 `json:"coalesced_writes"`
	RMWIssued       uint64 `json:"rmw_issued"`   // delayed operations issued by this node
	RMWExecuted     uint64 `json:"rmw_executed"` // delayed operations executed at this node's masters

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	Fences      uint64     `json:"fences"`
	FenceStall  sim.Cycles `json:"fence_stall"`  // cycles stalled waiting for fences
	ReadStall   sim.Cycles `json:"read_stall"`   // cycles stalled on blocking/pending reads
	WriteStall  sim.Cycles `json:"write_stall"`  // cycles stalled on a full pending-writes cache
	VerifyStall sim.Cycles `json:"verify_stall"` // cycles stalled waiting for delayed-op results

	PageFaults  uint64 `json:"page_faults"`
	PagesCopied uint64 `json:"pages_copied"`
	// Invalidations and InvalidateMisses are nonzero only in the
	// write-invalidate ablation mode.
	Invalidations    uint64     `json:"invalidations"`
	InvalidateMisses uint64     `json:"invalidate_misses"`
	CtxSwitches      uint64     `json:"ctx_switches"`
	BusyCycles       sim.Cycles `json:"busy_cycles"` // useful computation + issue time
	threadsActive    int
}

// Machine aggregates per-node counters plus machine-wide message
// counts by type.
type Machine struct {
	Nodes []Node

	// obs, when non-nil, records structured events (see event.go).
	obs *Observer

	// Message counts by coherence-protocol type, machine-wide.
	MsgRead    uint64 // read requests
	MsgReadRep uint64 // read replies
	MsgWrite   uint64 // write requests (to addressed node or forwarded to master)
	MsgUpdate  uint64 // updates down copy-lists
	MsgAck     uint64 // write/RMW completion acks
	MsgRMW     uint64 // delayed-operation requests
	MsgRMWRep  uint64 // delayed-operation replies
	MsgPage    uint64 // page-copy traffic
	MsgWake    uint64 // cross-node thread wakes (Sleep/Wake)

	// Unreliable-network mode counters (all zero when the fault model
	// is off; see mesh.FaultConfig and coherence/transport.go).
	MsgTAck     uint64 // transport acks sent by the reliability sublayer
	Retransmits uint64 // messages re-sent by retransmit timers
	TransDups   uint64 // arrivals dropped as duplicates (seq already seen)
	TransGaps   uint64 // arrivals dropped as out-of-order (gap after a loss)
	TransStalls uint64 // sends bounced by a full link buffer (back-pressure)

	// Crash/recovery counters (all zero unless the run has a crash
	// script; see mesh.FaultConfig.Crashes, coherence/crash.go and
	// kernel/failover.go).
	Crashes         uint64 // scripted node outages begun
	Restarts        uint64 // scripted node restarts completed
	Failovers       uint64 // kernel failover epochs executed
	MastersPromoted uint64 // pages whose master moved to the next surviving copy
	PagesFailedOver uint64 // page copies lost to crashes and spliced out
	PagesResynced   uint64 // downstream survivors re-copied by failover cascades
	RejoinCopies    uint64 // copies re-replicated onto restarted nodes
	RedirectedMsgs  uint64 // parked requests rerouted to a new master at failover
	ForcedRetires   uint64 // pending writes force-retired by a crash epoch
	ReissuedOps     uint64 // reads/RMWs re-issued after a failover or restart
	StaleAcks       uint64 // late acks/replies for already-retired operations (tolerated)
	CrashOrphans    uint64 // messages addressed to state lost in a crash
	// Recovery observes, per failover, the cycles from the crash
	// instant to the restored master (detection-triggered or, for an
	// undetected outage, the restart-time epoch).
	Recovery Hist
}

// New returns a stats block for n nodes.
func New(n int) *Machine {
	return &Machine{Nodes: make([]Node, n)}
}

// AttachObserver sets the machine's structured-event observer;
// components reach it through Observer() and emit only when non-nil,
// so the tracing-off hot paths stay allocation-free.
func (m *Machine) AttachObserver(o *Observer) { m.obs = o }

// Observer returns the attached observer, or nil when tracing is off.
func (m *Machine) Observer() *Observer { return m.obs }

// ShardView returns a Machine sharing m's per-node counter slice but
// holding private machine-wide scalars. core hands one view to each
// shard's components, at every shard count: per-node counters are
// written only by their owning node (node-disjoint across shards, so
// sharing the backing slice is race-free), while the machine-wide
// message tallies are written by every CM and therefore accumulate
// per shard, to be folded into the master with FoldShard after the
// run. When tracing is on, core attaches the shard's child observer
// (ShardChild) to the view, so the shard's components emit
// shard-locally.
func (m *Machine) ShardView() *Machine { return &Machine{Nodes: m.Nodes} }

// FoldShard drains a shard view's machine-wide scalar counters, and
// its child observer's latency histograms, into m and m's observer:
// the values are added and the view's reset, so folding after every
// run keeps repeated Run/fold cycles from double-counting and the
// master's Metrics read as a one-engine run's would. Call with the
// simulation quiescent.
func (m *Machine) FoldShard(v *Machine) {
	m.MsgRead += v.MsgRead
	m.MsgReadRep += v.MsgReadRep
	m.MsgWrite += v.MsgWrite
	m.MsgUpdate += v.MsgUpdate
	m.MsgAck += v.MsgAck
	m.MsgRMW += v.MsgRMW
	m.MsgRMWRep += v.MsgRMWRep
	m.MsgPage += v.MsgPage
	m.MsgWake += v.MsgWake
	m.MsgTAck += v.MsgTAck
	m.Retransmits += v.Retransmits
	m.TransDups += v.TransDups
	m.TransGaps += v.TransGaps
	m.TransStalls += v.TransStalls
	m.Crashes += v.Crashes
	m.Restarts += v.Restarts
	m.Failovers += v.Failovers
	m.MastersPromoted += v.MastersPromoted
	m.PagesFailedOver += v.PagesFailedOver
	m.PagesResynced += v.PagesResynced
	m.RejoinCopies += v.RejoinCopies
	m.RedirectedMsgs += v.RedirectedMsgs
	m.ForcedRetires += v.ForcedRetires
	m.ReissuedOps += v.ReissuedOps
	m.StaleAcks += v.StaleAcks
	m.CrashOrphans += v.CrashOrphans
	m.Recovery.Add(&v.Recovery)
	if v.obs != nil {
		m.obs.Metrics.Add(&v.obs.Metrics)
		v.obs.Metrics = Metrics{}
	}
	nodes, obs := v.Nodes, v.obs
	*v = Machine{Nodes: nodes, obs: obs}
}

// Reliability groups the unreliable-network sublayer counters for
// uniform experiment JSON rows (all zero when the fault model is off).
type Reliability struct {
	MsgTAck     uint64 `json:"msg_tack"`
	Retransmits uint64 `json:"retransmits"`
	TransDups   uint64 `json:"trans_dups"`
	TransGaps   uint64 `json:"trans_gaps"`
	TransStalls uint64 `json:"trans_stalls"`
}

// Reliability returns the reliability-sublayer counter block.
func (m *Machine) Reliability() Reliability {
	return Reliability{
		MsgTAck:     m.MsgTAck,
		Retransmits: m.Retransmits,
		TransDups:   m.TransDups,
		TransGaps:   m.TransGaps,
		TransStalls: m.TransStalls,
	}
}

// CrashBlock groups the crash/failover counters for uniform experiment
// JSON rows (all zero unless the run had a crash script).
type CrashBlock struct {
	Crashes         uint64  `json:"crashes"`
	Restarts        uint64  `json:"restarts"`
	Failovers       uint64  `json:"failovers"`
	MastersPromoted uint64  `json:"masters_promoted"`
	PagesFailedOver uint64  `json:"pages_failed_over"`
	PagesResynced   uint64  `json:"pages_resynced"`
	RejoinCopies    uint64  `json:"rejoin_copies"`
	RedirectedMsgs  uint64  `json:"redirected_msgs"`
	ForcedRetires   uint64  `json:"forced_retires"`
	ReissuedOps     uint64  `json:"reissued_ops"`
	StaleAcks       uint64  `json:"stale_acks"`
	CrashOrphans    uint64  `json:"crash_orphans"`
	RecoveryMean    float64 `json:"recovery_mean"` // mean cycles crash → restored master
	RecoveryMax     uint64  `json:"recovery_max"`  // worst-case recovery, cycles
}

// Crash returns the crash/failover counter block.
func (m *Machine) Crash() CrashBlock {
	return CrashBlock{
		Crashes:         m.Crashes,
		Restarts:        m.Restarts,
		Failovers:       m.Failovers,
		MastersPromoted: m.MastersPromoted,
		PagesFailedOver: m.PagesFailedOver,
		PagesResynced:   m.PagesResynced,
		RejoinCopies:    m.RejoinCopies,
		RedirectedMsgs:  m.RedirectedMsgs,
		ForcedRetires:   m.ForcedRetires,
		ReissuedOps:     m.ReissuedOps,
		StaleAcks:       m.StaleAcks,
		CrashOrphans:    m.CrashOrphans,
		RecoveryMean:    m.Recovery.Mean(),
		RecoveryMax:     m.Recovery.Max,
	}
}

// Totals sums the per-node counters.
func (m *Machine) Totals() Node {
	var t Node
	for i := range m.Nodes {
		n := &m.Nodes[i]
		t.LocalReads += n.LocalReads
		t.RemoteReads += n.RemoteReads
		t.LocalWrites += n.LocalWrites
		t.RemoteWrites += n.RemoteWrites
		t.Updates += n.Updates
		t.CoalescedWrites += n.CoalescedWrites
		t.RMWIssued += n.RMWIssued
		t.RMWExecuted += n.RMWExecuted
		t.CacheHits += n.CacheHits
		t.CacheMisses += n.CacheMisses
		t.Fences += n.Fences
		t.FenceStall += n.FenceStall
		t.ReadStall += n.ReadStall
		t.WriteStall += n.WriteStall
		t.VerifyStall += n.VerifyStall
		t.PageFaults += n.PageFaults
		t.PagesCopied += n.PagesCopied
		t.Invalidations += n.Invalidations
		t.InvalidateMisses += n.InvalidateMisses
		t.CtxSwitches += n.CtxSwitches
		t.BusyCycles += n.BusyCycles
	}
	return t
}

// Messages returns the total network message count across all
// protocol types.
func (m *Machine) Messages() uint64 {
	return m.MsgRead + m.MsgReadRep + m.MsgWrite + m.MsgUpdate +
		m.MsgAck + m.MsgRMW + m.MsgRMWRep + m.MsgPage + m.MsgTAck + m.MsgWake
}

// ReadRatio returns local/remote reads (∞ is reported as a large
// finite value to keep table output readable).
func (m *Machine) ReadRatio() float64 {
	t := m.Totals()
	return ratio(t.LocalReads, t.RemoteReads)
}

// WriteRatio returns local/remote writes.
func (m *Machine) WriteRatio() float64 {
	t := m.Totals()
	return ratio(t.LocalWrites, t.RemoteWrites)
}

// UpdateRatio returns total messages / update messages (the last
// column of Table 2-1: as replication grows, a larger share of network
// traffic is update propagation and the ratio falls toward 1).
func (m *Machine) UpdateRatio() float64 {
	return ratio(m.Messages(), m.MsgUpdate)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return float64(a) // "infinite" ratio, reported as the numerator
	}
	return float64(a) / float64(b)
}

// Utilization returns the ratio of average useful processor time to
// elapsed time across active processors (the paper's "utilization" in
// Figure 2-1). active is the number of processors that executed
// threads; elapsed is total run cycles.
func (m *Machine) Utilization(active int, elapsed sim.Cycles) float64 {
	if active == 0 || elapsed == 0 {
		return 0
	}
	var busy sim.Cycles
	for i := range m.Nodes {
		busy += m.Nodes[i].BusyCycles
	}
	return float64(busy) / (float64(elapsed) * float64(active))
}

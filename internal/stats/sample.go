package stats

import "plus/internal/sim"

// Sample is one time-series snapshot, recorded by the machine's
// sampler at the run loop's first quiescent point at or after each
// ObserveConfig.SampleEvery boundary (see core.Machine.quiescentFunc;
// the sampler schedules no tick events, so sampling never alters the
// simulated schedule). All per-interval fields are deltas since the
// previous sample, so a sample stream integrates back to the
// end-of-run totals.
type Sample struct {
	// At is the cycle the sample was taken: the first quiescent point
	// at or after the period boundary, not the boundary itself.
	At sim.Cycles `json:"at"`
	// Events is the total number of events the observer had recorded.
	Events uint64 `json:"events"`
	// LinkUtil is each directed link's busy fraction over the interval;
	// indexed like TraceMeta.Links. Every traced hop books its
	// occupancy, so it is filled with the contention model off too,
	// where it is the offered load and may exceed 1.
	LinkUtil []float64 `json:"link_util,omitempty"`
	// LinkDepth is each directed link's backlog at the sample instant:
	// how many cycles of already-reserved traffic are still queued.
	LinkDepth []sim.Cycles `json:"link_depth,omitempty"`
	// Per-node stall/busy cycle deltas over the interval, indexed by
	// node id.
	NodeBusy        []sim.Cycles `json:"node_busy,omitempty"`
	NodeReadStall   []sim.Cycles `json:"node_read_stall,omitempty"`
	NodeWriteStall  []sim.Cycles `json:"node_write_stall,omitempty"`
	NodeFenceStall  []sim.Cycles `json:"node_fence_stall,omitempty"`
	NodeVerifyStall []sim.Cycles `json:"node_verify_stall,omitempty"`
}

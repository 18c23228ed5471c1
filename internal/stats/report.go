package stats

import (
	"fmt"
	"strings"

	"plus/internal/sim"
)

// Report renders the machine's counters as a human-readable table:
// one row per node plus totals, followed by the network message
// breakdown. elapsed scales the busy column into utilization.
func (m *Machine) Report(elapsed sim.Cycles) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %9s %9s %9s %9s %8s %8s %7s %6s\n",
		"node", "rdLocal", "rdRemote", "wrLocal", "wrRemote", "updates", "rmw", "faults", "util")
	row := func(name string, n Node, share sim.Cycles) {
		util := "-"
		if share > 0 {
			util = fmt.Sprintf("%.3f", float64(n.BusyCycles)/float64(share))
		}
		fmt.Fprintf(&b, "%-5s %9d %9d %9d %9d %8d %8d %7d %6s\n",
			name, n.LocalReads, n.RemoteReads, n.LocalWrites, n.RemoteWrites,
			n.Updates, n.RMWIssued, n.PageFaults, util)
	}
	for i := range m.Nodes {
		row(fmt.Sprintf("n%d", i), m.Nodes[i], elapsed)
	}
	// The total row's utilization averages over all nodes.
	row("total", m.Totals(), elapsed*sim.Cycles(len(m.Nodes)))
	fmt.Fprintf(&b, "\nmessages: %d total — read %d/%d, write %d, update %d, ack %d, rmw %d/%d, page %d",
		m.Messages(), m.MsgRead, m.MsgReadRep, m.MsgWrite, m.MsgUpdate, m.MsgAck,
		m.MsgRMW, m.MsgRMWRep, m.MsgPage)
	if m.MsgWake > 0 {
		fmt.Fprintf(&b, ", wake %d", m.MsgWake)
	}
	b.WriteString("\n")
	t := m.Totals()
	fmt.Fprintf(&b, "stalls (cycles): read %d, write %d, verify %d, fence %d\n",
		t.ReadStall, t.WriteStall, t.VerifyStall, t.FenceStall)
	if t.Invalidations > 0 {
		fmt.Fprintf(&b, "invalidate mode: %d invalidations, %d refetch misses\n",
			t.Invalidations, t.InvalidateMisses)
	}
	if m.MsgTAck > 0 || m.Retransmits > 0 || m.TransStalls > 0 {
		fmt.Fprintf(&b, "transport: %d tacks, %d retransmits, %d dup drops, %d gap drops, %d backpressure stalls\n",
			m.MsgTAck, m.Retransmits, m.TransDups, m.TransGaps, m.TransStalls)
	}
	return b.String()
}

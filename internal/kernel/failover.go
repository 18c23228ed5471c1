// Node-crash failover: the kernel side of the crash & recovery
// protocol (crash-script runs only; see PROTOCOL.md "Crash & failover"
// and coherence/crash.go for the per-node half).
//
// The failover epoch for a crashed node runs atomically at a lookahead
// barrier — the kernel's transition fence: no protocol message is
// processed between the first list rewrite and the last transport
// sweep, so survivors never observe a half-rewritten chain. Per page
// the dead node held, the epoch:
//
//  1. splices the dead copy out of the copy-list, promoting the next
//     copy to master when the dead node held it (the hardened form of
//     DeleteCopy's promotion path — but without requiring write
//     quiescence, which a crash never grants);
//  2. rewrites survivor master/next tables and shoots down stale
//     translations machine-wide;
//  3. starts a sequential resync cascade re-copying every copy
//     downstream of the break from its predecessor (the chain prefix
//     property — earlier copies hold a superset of later copies'
//     applied writes — makes each hop restore the next);
//  4. runs every live CM's Failover sweep: reroute parked requests,
//     complete truncated updates, reset the transport pair, and
//     force-retire or re-issue operations stranded inside the dead
//     node.
//
// A restart re-runs the epoch first if the outage went undetected,
// then wipes the node's volatile state and rejoins each of its pages
// as an ordinary copy via background replication.
package kernel

import (
	"fmt"
	"slices"

	"plus/internal/coherence"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
)

// MarkDown records the crash instant for a node, for the
// recovery-time metric. Called by the core layer at injection time;
// the failover epoch itself runs at detection (or restart).
func (k *Kernel) MarkDown(n mesh.NodeID, at sim.Cycles) {
	if k.downSince == nil {
		k.downSince = make(map[mesh.NodeID]sim.Cycles)
	}
	k.downSince[n] = at
}

// RerouteFrame implements coherence.FailoverRouter: traffic addressed
// to a frame a failover spliced out is redirected to the current
// master of the page that frame held. ok is false for frames never
// lost to a crash.
func (k *Kernel) RerouteFrame(owner mesh.NodeID, frame memory.PPage) (memory.GPage, bool) {
	frames := k.lost[owner]
	if frames == nil {
		return memory.NilGPage, false
	}
	vp, ok := frames[frame]
	if !ok {
		return memory.NilGPage, false
	}
	list := k.CopyList(vp)
	if len(list) == 0 {
		return memory.NilGPage, false
	}
	return list[0], true
}

// Suspect implements coherence.FailoverRouter. The suspicion is
// confirmed against the crash script at by's clock — a stand-in for a
// management-network probe, so a merely slow peer is never failed over.
func (k *Kernel) Suspect(by, dead mesh.NodeID) {
	if k.net.DownAt(dead, k.net.EngineFor(by).Now()) {
		k.deferOp(opFail, pageOp{node: by, from: dead})
	}
}

// PairBase implements coherence.FailoverRouter: 2^32 per failover of
// a or b, past every sequence number an earlier incarnation used.
func (k *Kernel) PairBase(a, b mesh.NodeID) uint64 {
	return (k.fails[a] + k.fails[b]) << 32
}

// FailNode runs the failover epoch for a crashed node. Idempotent per
// outage: detection by several peers and a subsequent restart all
// funnel here, and only the first call acts.
func (k *Kernel) FailNode(n mesh.NodeID) {
	if _, done := k.failed[n]; done {
		return
	}
	if k.failed == nil {
		k.failed = make(map[mesh.NodeID][]memory.VPage)
	}
	if k.lost == nil {
		k.lost = make(map[mesh.NodeID]map[memory.PPage]memory.VPage)
	}
	if k.lost[n] == nil {
		k.lost[n] = make(map[memory.PPage]memory.VPage)
	}
	k.st.Failovers++
	k.fails[n]++
	if at, ok := k.downSince[n]; ok {
		k.st.Recovery.Observe(uint64(k.eng.Now() - at))
	}

	// affected collects every copy of every page the dead node held —
	// operations addressed to any of them may have had protocol state
	// inside the crashed node.
	affected := make(map[memory.GPage]bool)
	rejoin := []memory.VPage{}
	for vp := memory.VPage(0); int(vp) < len(k.copyLists); vp++ {
		list := k.CopyList(vp)
		idx := k.copyIndex(vp, n)
		if idx < 0 {
			continue
		}
		if len(list) == 1 {
			panic(fmt.Sprintf("kernel: node %d crashed holding the only copy of page %d — unrecoverable data loss; replicate pages that must survive crashes", n, vp))
		}
		k.st.PagesFailedOver++
		for _, g := range list {
			affected[g] = true
		}
		k.lost[n][list[idx].Page] = vp
		rejoin = append(rejoin, vp)
		if idx == 0 {
			k.st.MastersPromoted++
		}
		// Unlink exactly as DeleteCopy does. The dead node's own CM
		// tables are left alone: they are volatile state that Restart
		// wipes wholesale.
		k.unlink(vp, idx)
		k.resyncHop(vp, max(idx, 1))
	}
	k.failed[n] = rejoin

	aff := func(g coherence.GAddr) bool {
		return affected[memory.GPage{Node: g.Node, Page: g.Page}]
	}
	for i, cm := range k.cms {
		// Skip the dead node and any other currently-down node: a down
		// CM's parked traffic was dropped at its own crash, and its
		// stranded operations are re-issued at its own restart.
		if mesh.NodeID(i) == n || cm.Down() {
			continue
		}
		cm.Failover(n, aff)
	}
}

// resyncHop re-copies vp's copies from list position pos to the end,
// one hop at a time: each target receives a snapshot from its chain
// predecessor over the same FIFO (and transport-ordered) pair that
// carries the predecessor's subsequent updates, so — exactly as in
// Replicate — the target converges to the predecessor while writes
// continue to flow, as long as that predecessor is unchanged: a copy
// linked in front of the target mid-hop sends its updates over another
// pair, which the snapshot can overwrite (ROADMAP item 1(a)). Hops run
// sequentially because the chain prefix property only guarantees a
// predecessor is correct once its own resync (if any) completed; each
// hop's completion, on the target's shard, defers the next to the
// barrier. The list is re-read each hop so a further failover cannot
// strand the cascade on stale positions. A down predecessor ends it:
// its frame is stale and it sends nothing, and its own failover resyncs
// the rest of the chain. A predecessor whose own page copy is still
// filling holds no page yet: the hop waits, and that copy's landing
// resumes it on the predecessor's shard.
func (k *Kernel) resyncHop(vp memory.VPage, pos int) {
	list := k.CopyList(vp)
	if pos < 1 || pos >= len(list) || k.cms[list[pos-1].Node].Down() {
		return
	}
	pred, succ := list[pos-1], list[pos]
	if k.filling[pred.Node][pred.Page] > 0 {
		wait := k.resyncWait[pred.Node]
		if wait == nil {
			wait = make(map[memory.PPage][]pageOp)
			k.resyncWait[pred.Node] = wait
		}
		wait[pred.Page] = append(wait[pred.Page], pageOp{vp: vp, node: pred.Node, pos: pos})
		return
	}
	k.st.PagesResynced++
	k.copyPage(pred, succ, func() {
		k.deferOp(opResync, pageOp{vp: vp, node: succ.Node, pos: pos + 1})
	})
}

// RestartNode brings a crashed node back: the failover epoch runs now
// if the outage went undetected (nobody escalated before the restart),
// the node's volatile CM and MMU state is wiped, and every page it
// held before the crash is re-replicated onto it in the background —
// the node rejoins each copy-list as an ordinary copy, never
// reclaiming mastership it lost. A page with no live copy left is not
// rejoined; its last copy's failover reports the loss.
func (k *Kernel) RestartNode(n mesh.NodeID) {
	if _, was := k.failed[n]; !was {
		k.FailNode(n)
	}
	vps := k.failed[n]
	delete(k.failed, n)
	delete(k.downSince, n)
	k.cms[n].Restart()
	k.tables[n].Flush()
	live := func(g memory.GPage) bool { return !k.cms[g.Node].Down() }
	for _, vp := range vps {
		if k.HasCopy(vp, n) || !slices.ContainsFunc(k.CopyList(vp), live) {
			continue
		}
		k.st.RejoinCopies++
		k.Replicate(vp, n, nil)
	}
}

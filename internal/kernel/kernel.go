// Package kernel models the operating-system services of PLUS (§2.4):
// the centralized virtual-memory map, page allocation, software-driven
// page replication and deletion with hardware-assisted background
// copying, copy-list ordering, and the competitive replication policy
// driven by the hardware per-page reference counters.
//
// Software is responsible for page placement and replication policies;
// the hardware (coherence manager, package coherence) keeps the copies
// coherent and performs the bulk copy.
package kernel

import (
	"fmt"

	"plus/internal/coherence"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/mmu"
	"plus/internal/sim"
	"plus/internal/stats"
)

// Kernel is the machine-wide operating-system state. Like all
// simulated components it runs under the engine's single logical
// thread.
type Kernel struct {
	eng    *sim.Engine
	net    *mesh.Mesh
	cms    []*coherence.CM
	mems   []*memory.Memory
	tables []*mmu.Table
	st     *stats.Machine

	// copyLists is the centralized table, indexed by virtual page:
	// each page's ordered copy-list, master copy first. AllocPage
	// numbers pages densely from 0, so its length is the page count.
	copyLists [][]memory.GPage

	// Competitive replication (§2.4): per-(node, page) remote reference
	// counters maintained by hardware; when one overflows the
	// threshold, the kernel replicates the page onto that node. The
	// counters and in-flight marks live in the referencing node's
	// mmu.Table, written only from that node's shard, so NoteRemoteRef
	// never races.
	threshold uint64
	// Replications counts competitive replications triggered. Mutated
	// only with the machine quiescent (inline in serial runs, at
	// lookahead barriers in sharded ones).
	Replications uint64

	// filling holds, per node, the frames whose bulk page copy has not
	// landed yet, with the number of copies travelling to each. A copy
	// marks its target when it starts (with the machine quiescent) and
	// clears the mark where it lands, on the target's own shard, so no
	// two shards write one map. insertionPoint never picks a marked
	// frame as a new copy's data source, and the marks are part of the
	// quiescence predicate core's invariant checker uses
	// (CopiesInFlight): while a copy is in flight the new replica's
	// contents legitimately lag its peers.
	filling []map[memory.PPage]int
	// resyncWait holds, per node, the resync hops waiting for a frame
	// of that node to fill: a hop copies from its chain predecessor,
	// which must hold the page first. Written like the fill marks (with
	// the machine quiescent, and on the filling node's shard where its
	// copy lands, which resumes the hops).
	resyncWait []map[memory.PPage][]pageOp

	// Crash/failover bookkeeping (failover.go; nil on runs without a
	// crash script). failed holds each failed-over node's pre-crash
	// pages until its restart rejoins them; downSince the crash instant
	// per currently-down node; lost every frame ever spliced out by a
	// failover, so stale traffic addressed to a dead node's copy can be
	// rerouted to the page's current master; fails counts each node's
	// failovers.
	failed    map[mesh.NodeID][]memory.VPage
	downSince map[mesh.NodeID]sim.Cycles
	lost      map[mesh.NodeID]map[memory.PPage]memory.VPage
	fails     []uint64
}

// pageOp is one page reorganization handed to the acting node's
// engine Defer (the event kind names the operation): copy-list splices
// rewrite other nodes' CM and MMU tables in place, which is only safe
// with the whole machine quiescent.
type pageOp struct {
	vp   memory.VPage
	node mesh.NodeID // acting node: new-copy holder (replicate/competitive), victim (delete), destination (migrate), suspecter (fail), the hop's predecessor (resync)
	from mesh.NodeID // migrate: the node losing its copy; fail: the crashed node
	pos  int         // resync: the next hop's list position
	done func()
}

const (
	opReplicate = iota
	opDelete
	opMigrate
	opCompetitive
	opFail
	opResync
)

// deferOp runs a page reorganization at the next quiescent point: at
// once outside a round, at the next lookahead barrier mid-round, at
// every shard count. Mid-round, the request must come from code
// running on the acting node's shard — true for every in-tree caller:
// competitive triggers fire on the referencing node, threads
// reorganize copies on their own node, a transport suspects a peer and
// a resync hop completes on the node it filled.
func (k *Kernel) deferOp(kind int, op pageOp) {
	k.net.EngineFor(op.node).Defer(k, kind, &op)
}

// HandleEvent implements sim.EventSink for deferOp.
func (k *Kernel) HandleEvent(kind int, data any) {
	op := data.(*pageOp)
	switch kind {
	case opReplicate:
		k.replicateBG(op.vp, op.node, op.done)
	case opDelete:
		k.deleteCopyNow(op.vp, op.node)
	case opMigrate:
		k.ReplicateNow(op.vp, op.node)
		k.deleteCopyNow(op.vp, op.from)
	case opCompetitive:
		k.competitiveNow(op.vp, op.node)
	case opFail:
		k.FailNode(op.from)
	case opResync:
		k.resyncHop(op.vp, op.pos)
	}
}

// New assembles the kernel over the machine's nodes.
func New(eng *sim.Engine, net *mesh.Mesh, cms []*coherence.CM, mems []*memory.Memory, tables []*mmu.Table, st *stats.Machine) *Kernel {
	return &Kernel{
		eng:        eng,
		net:        net,
		cms:        cms,
		mems:       mems,
		tables:     tables,
		st:         st,
		fails:      make([]uint64, net.Nodes()),
		filling:    make([]map[memory.PPage]int, net.Nodes()),
		resyncWait: make([]map[memory.PPage][]pageOp, net.Nodes()),
	}
}

// SetCompetitiveThreshold enables the competitive replication policy:
// after threshold remote references from one node to one page, the
// page is replicated onto that node. 0 disables the policy.
func (k *Kernel) SetCompetitiveThreshold(threshold uint64) {
	k.threshold = threshold
}

// AllocPage allocates one fresh virtual page homed on (mastered at)
// the given node and returns its page number. The home mapping is
// installed eagerly; other nodes fill lazily on first touch.
func (k *Kernel) AllocPage(home mesh.NodeID) memory.VPage {
	vp := memory.VPage(len(k.copyLists))
	frame := k.mems[home].AllocFrame()
	gp := memory.GPage{Node: home, Page: frame}
	k.cms[home].InstallPage(frame, gp, memory.NilGPage)
	k.copyLists = append(k.copyLists, []memory.GPage{gp})
	k.tables[home].Install(vp, gp)
	return vp
}

// AllocPages allocates n consecutive virtual pages homed on home and
// returns the first page number.
func (k *Kernel) AllocPages(home mesh.NodeID, n int) memory.VPage {
	if n < 1 {
		panic("kernel: AllocPages with n < 1")
	}
	base := k.AllocPage(home)
	for i := 1; i < n; i++ {
		k.AllocPage(home)
	}
	return base
}

// CopyList returns the page's copy-list (master first). The returned
// slice must not be mutated.
func (k *Kernel) CopyList(vp memory.VPage) []memory.GPage {
	if uint(vp) < uint(len(k.copyLists)) {
		return k.copyLists[vp]
	}
	return nil
}

// CopyNodes returns the nodes holding copies of vp, master first.
func (k *Kernel) CopyNodes(vp memory.VPage) []mesh.NodeID {
	list := k.CopyList(vp)
	nodes := make([]mesh.NodeID, len(list))
	for i, g := range list {
		nodes[i] = g.Node
	}
	return nodes
}

// HasCopy reports whether node holds a copy of vp.
func (k *Kernel) HasCopy(vp memory.VPage, node mesh.NodeID) bool {
	return k.copyIndex(vp, node) >= 0
}

// copyIndex returns node's position in vp's copy-list, or -1.
func (k *Kernel) copyIndex(vp memory.VPage, node mesh.NodeID) int {
	for i, g := range k.CopyList(vp) {
		if g.Node == node {
			return i
		}
	}
	return -1
}

// Resolve implements the lazy page-table fill: it returns the most
// convenient (closest) physical copy of vp for the requesting node.
// The caller charges the fault cost and installs the mapping.
func (k *Kernel) Resolve(node mesh.NodeID, vp memory.VPage) (memory.GPage, error) {
	list := k.CopyList(vp)
	if len(list) == 0 {
		return memory.NilGPage, fmt.Errorf("kernel: virtual page %d not mapped", vp)
	}
	best := list[0]
	bestH := k.net.Hops(node, best.Node)
	for _, g := range list[1:] {
		if h := k.net.Hops(node, g.Node); h < bestH || (h == bestH && g.Node < best.Node) {
			best, bestH = g, h
		}
	}
	return best, nil
}

// insertionPoint picks the copy-list position (an index >= 1, i.e.
// after the master) where linking a copy on node adds the least
// network path length — the kernel "orders the copy-list to minimize
// the network path length through all the nodes in the list" (§2.3)
// by nearest insertion. The predecessor, the data source, is never a
// down copy or one whose own page copy is still travelling (§2.4's
// link-then-copy is only sound from a copy that holds the page),
// unless every copy is.
func (k *Kernel) insertionPoint(list []memory.GPage, node mesh.NodeID) int {
	bestPos, bestCost := len(list), -1
	for pos := 1; pos <= len(list); pos++ {
		pred := list[pos-1]
		if k.cms[pred.Node].Down() || k.filling[pred.Node][pred.Page] > 0 {
			continue
		}
		cost := k.net.Hops(pred.Node, node)
		if pos < len(list) {
			succ := list[pos].Node
			cost += k.net.Hops(node, succ) - k.net.Hops(pred.Node, succ)
		}
		if bestCost < 0 || cost < bestCost {
			bestPos, bestCost = pos, cost
		}
	}
	return bestPos
}

// ReplicateNow creates a copy of vp on node instantaneously — data,
// copy-list splice and page-table update all at the current instant
// with no simulated cost. Use it for pre-run placement, mirroring the
// paper's experiments where memory layout is requested up front.
func (k *Kernel) ReplicateNow(vp memory.VPage, node mesh.NodeID) {
	if k.HasCopy(vp, node) {
		return
	}
	gp, pred := k.link(vp, node)
	// Instant data copy from the predecessor.
	k.mems[node].CopyFrame(gp.Page, k.mems[pred.Node], pred.Page)
	k.tables[node].Install(vp, gp)
}

// Replicate creates a copy of vp on node as a background activity
// (§2.4): the new copy is linked into the copy-list first — so
// concurrent writes propagate through it while the bulk data is in
// flight — and then the hardware copies the page from the predecessor.
// done fires when the copy is complete and the node's mapping has been
// switched to the local copy.
//
// The splice rewrites other nodes' CM tables in place, so it runs at
// the next quiescent point (sim.Engine.Defer): at the call instant
// outside a run, at the next lookahead barrier when called mid-round.
// A mid-round request must come from node's own shard (see deferOp).
func (k *Kernel) Replicate(vp memory.VPage, node mesh.NodeID, done func()) {
	k.deferOp(opReplicate, pageOp{vp: vp, node: node, done: done})
}

// replicateBG is Replicate's body, run with the machine quiescent.
func (k *Kernel) replicateBG(vp memory.VPage, node mesh.NodeID, done func()) {
	if k.HasCopy(vp, node) {
		if done != nil {
			done()
		}
		return
	}
	gp, pred := k.link(vp, node)
	k.copyPage(pred, gp, func() {
		// When the new page has been fully written, the node updates
		// its address translation tables to use the new copy. This runs
		// on node's own shard (the copy arrives there), so the table
		// install never crosses workers.
		k.tables[node].Install(vp, gp)
		if done != nil {
			done()
		}
	})
}

// copyPage starts the hardware bulk copy of src's frame into dst, the
// next copy in src's chain, marks dst as filling, and runs then once,
// on dst's node, when the copy has landed; the last fill of dst also
// resumes the resync hops waiting to copy from it. Replication and the
// failover resync both copy through here, with the machine quiescent.
func (k *Kernel) copyPage(src, dst memory.GPage, then func()) {
	fills := k.filling[dst.Node]
	if fills == nil {
		fills = make(map[memory.PPage]int)
		k.filling[dst.Node] = fills
	}
	fills[dst.Page]++
	// fired guards against the completion running twice: on crash-script
	// runs a copy racing a crash may be completed administratively from
	// a parked retransmit clone as well as by its delivered original.
	fired := false
	k.cms[src.Node].PageCopy(src.Page, dst, func() {
		if fired {
			return
		}
		fired = true
		if fills[dst.Page]--; fills[dst.Page] == 0 {
			delete(fills, dst.Page)
			for _, op := range k.resyncWait[dst.Node][dst.Page] {
				k.deferOp(opResync, op)
			}
			delete(k.resyncWait[dst.Node], dst.Page)
		}
		then()
	})
}

// link allocates a frame on node and splices it into vp's copy-list at
// the insertion point, updating the hardware master/next-copy tables on
// the predecessor and the new copy. It returns the new copy and its
// chain predecessor, the source of the page's data.
func (k *Kernel) link(vp memory.VPage, node mesh.NodeID) (gp, pred memory.GPage) {
	list := k.CopyList(vp)
	if len(list) == 0 {
		panic(fmt.Sprintf("kernel: replicate of unmapped page %d", vp))
	}
	pos := k.insertionPoint(list, node)
	gp = memory.GPage{Node: node, Page: k.mems[node].AllocFrame()}
	pred = list[pos-1]
	next := memory.NilGPage
	if pos < len(list) {
		next = list[pos]
	}
	k.cms[node].InstallPage(gp.Page, list[0], next)
	k.cms[pred.Node].SetNext(pred.Page, gp)
	nl := make([]memory.GPage, 0, len(list)+1)
	nl = append(nl, list[:pos]...)
	nl = append(nl, gp)
	nl = append(nl, list[pos:]...)
	k.copyLists[vp] = nl
	return gp, pred
}

// DeleteCopy removes node's copy of vp. Deleting a copy is akin to
// removing a page in a paging operating system: every node that maps
// the page must update its translation tables and flush its TLB
// (§2.4). The machine must be quiescent for this page (no writes or
// delayed operations in flight); the kernel verifies machine-wide
// write quiescence and panics otherwise — the simulated workloads
// fence before reorganizing memory, exactly as real software must.
//
// The quiescence check and table rewrites run at the next quiescent
// point (sim.Engine.Defer): at the call instant outside a run; called
// mid-round, the copy disappears at the next lookahead barrier.
func (k *Kernel) DeleteCopy(vp memory.VPage, node mesh.NodeID) {
	k.deferOp(opDelete, pageOp{vp: vp, node: node})
}

// deleteCopyNow is DeleteCopy's body, run with the machine quiescent.
func (k *Kernel) deleteCopyNow(vp memory.VPage, node mesh.NodeID) {
	for _, cm := range k.cms {
		if cm.PendingCount() != 0 {
			panic("kernel: DeleteCopy while writes are in flight")
		}
	}
	list := k.CopyList(vp)
	idx := k.copyIndex(vp, node)
	if idx < 0 {
		panic(fmt.Sprintf("kernel: node %d holds no copy of page %d", node, vp))
	}
	if len(list) == 1 {
		panic(fmt.Sprintf("kernel: cannot delete the only copy of page %d", vp))
	}
	k.unlink(vp, idx)
	k.cms[node].DropPage(list[idx].Page)
}

// unlink removes position idx from vp's copy-list. Removing the master
// promotes the next copy and rewrites every survivor's master pointer;
// removing any other copy splices its predecessor past it. Every
// node's translation is then shot down and the survivors' eager
// mappings reinstalled. The removed copy's own CM tables are left to
// the caller.
func (k *Kernel) unlink(vp memory.VPage, idx int) {
	list := k.CopyList(vp)
	nl := append(append([]memory.GPage{}, list[:idx]...), list[idx+1:]...)
	k.copyLists[vp] = nl
	if idx == 0 {
		newMaster := nl[0]
		for _, g := range nl {
			k.cms[g.Node].SetMaster(g.Page, newMaster)
		}
	} else {
		pred := nl[idx-1]
		next := memory.NilGPage
		if idx < len(nl) {
			next = nl[idx]
		}
		k.cms[pred.Node].SetNext(pred.Page, next)
	}
	// TLB shootdown: every node remaps the page lazily.
	for _, tbl := range k.tables {
		tbl.Invalidate(vp)
	}
	for _, g := range nl {
		k.tables[g.Node].Install(vp, g)
	}
}

// Migrate moves vp's copy from one node to another: create the new
// copy, then delete the old one (§2.4: "Page migration is achieved
// simply by creating a copy and then deleting the old one"). The
// machine must be write-quiescent, as for DeleteCopy. The whole move is
// one deferred step (sim.Engine.Defer on to's engine): at the call
// instant outside a run, at the next lookahead barrier when called
// mid-round (requested from to's shard).
func (k *Kernel) Migrate(vp memory.VPage, from, to mesh.NodeID) {
	k.deferOp(opMigrate, pageOp{vp: vp, node: to, from: from})
}

// NoteRemoteRef is called by the processor layer on every reference
// that leaves the node — the hardware "counts the number of references
// from each processor to each page" unconditionally (§2.4). When the
// competitive threshold is set and crossed, the kernel additionally
// replicates the page onto the referencing node in the background —
// the competitive algorithm of [5]: once the cumulative cost of remote
// references exceeds the cost of creating a copy, create it.
func (k *Kernel) NoteRemoteRef(node mesh.NodeID, vp memory.VPage) {
	tbl := k.tables[node]
	refs, replicating := tbl.CountRef(vp)
	if k.threshold == 0 {
		return
	}
	if refs >= k.threshold && !replicating && !k.HasCopy(vp, node) {
		// The guard is node-local state, set at the trigger so repeated
		// references this round don't re-trigger; the splice itself (and
		// the machine-wide Replications tally) waits for quiescence.
		tbl.StartReplication(vp)
		k.deferOp(opCompetitive, pageOp{vp: vp, node: node})
	}
}

// competitiveNow performs one competitive replication trigger with the
// machine quiescent: at the lookahead barrier after the trigger.
func (k *Kernel) competitiveNow(vp memory.VPage, node mesh.NodeID) {
	k.Replications++
	k.replicateBG(vp, node, func() {
		// Fires on node's own shard when the bulk copy lands there.
		k.tables[node].EndReplication(vp)
	})
}

// RemoteRefProfile returns a copy of the hardware reference counters:
// per page, the remote-reference count from each node. This is the
// measurement §2.4's second placement mode feeds into the next run's
// memory layout (see the placement package).
func (k *Kernel) RemoteRefProfile() map[memory.VPage]map[mesh.NodeID]uint64 {
	out := make(map[memory.VPage]map[mesh.NodeID]uint64)
	for node, tbl := range k.tables {
		tbl.EachRef(func(vp memory.VPage, c uint64) {
			pg := out[vp]
			if pg == nil {
				pg = make(map[mesh.NodeID]uint64)
				out[vp] = pg
			}
			pg[mesh.NodeID(node)] = c
		})
	}
	return out
}

// RefCount returns the hardware remote-reference counter for (node,
// page), for tests and instrumentation.
func (k *Kernel) RefCount(node mesh.NodeID, vp memory.VPage) uint64 {
	return k.tables[node].RefCount(vp)
}

// Poke writes v directly into every copy of the word at vp+off,
// bypassing the coherence protocol and simulated time. For machine
// initialization before a run.
func (k *Kernel) Poke(va memory.VAddr, v memory.Word) {
	vp, off := va.Page(), va.Offset()
	list := k.CopyList(vp)
	if len(list) == 0 {
		panic(fmt.Sprintf("kernel: Poke of unmapped page %d", vp))
	}
	for _, g := range list {
		k.mems[g.Node].Write(g.Page, off, v)
	}
}

// Peek reads the master copy of the word at va directly, bypassing
// the protocol and simulated time. For result extraction after a run.
func (k *Kernel) Peek(va memory.VAddr) memory.Word {
	vp, off := va.Page(), va.Offset()
	list := k.CopyList(vp)
	if len(list) == 0 {
		panic(fmt.Sprintf("kernel: Peek of unmapped page %d", vp))
	}
	return k.mems[list[0].Node].Read(list[0].Page, off)
}

// PageCount returns the number of virtual pages allocated so far.
func (k *Kernel) PageCount() int { return len(k.copyLists) }

// CopiesInFlight returns the number of background page copies
// (replications and resync hops) still travelling: the sum of the
// fill marks. Call it with the machine quiescent.
func (k *Kernel) CopiesInFlight() int {
	n := 0
	for _, fills := range k.filling {
		for _, c := range fills {
			n += c
		}
	}
	return n
}

// CheckCoherent verifies that every copy of every page holds identical
// contents — the general-coherence invariant after quiescence. It
// returns the first discrepancy in page order.
func (k *Kernel) CheckCoherent() error {
	for vp, list := range k.copyLists {
		if len(list) < 2 {
			continue
		}
		master := list[0]
		for _, g := range list[1:] {
			if off, mv, rv, ok := k.mems[master.Node].FirstDiff(master.Page, k.mems[g.Node], g.Page); ok {
				return fmt.Errorf("kernel: page %d word %d: master(n%d)=%#x copy(n%d)=%#x",
					vp, off, master.Node, mv, g.Node, rv)
			}
		}
	}
	return nil
}

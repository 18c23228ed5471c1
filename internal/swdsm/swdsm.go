// Package swdsm simulates a software shared-virtual-memory system in
// the style of Li's IVY / the "shared memory servers" the paper's
// Related Work section compares against (§4): sequentially consistent,
// page-granular, single-writer/multiple-reader, with every coherence
// action taken by kernel software on a page fault.
//
// The paper's claim — "regardless of network and processor speed, they
// result in large software overhead because the basic mechanism is
// paging... the software overhead (a few milliseconds on one-VAX-MIP
// machines) will remain" — becomes measurable: the same access trace
// runs here and on the PLUS machine, and the ext-swdsm experiment
// compares elapsed cycles.
//
// Protocol (static distributed manager):
//
//   - Every page has a fixed manager node that tracks the current
//     owner and the read-copy set.
//   - Read fault: ask the manager, which forwards to the owner; the
//     owner demotes itself to reader and ships the page; the faulting
//     node joins the copy set with read access.
//   - Write fault: ask the manager; the owner ships the page and every
//     copy is invalidated; the faulting node becomes exclusive owner.
//   - Hits (read with R/W access, write with W access) cost only the
//     memory access.
//
// Each fault charges SoftwareFault cycles at the faulting node (trap,
// kernel entry, message construction) plus ServiceCost at each
// participating node, plus page transfer time over the mesh — all
// package constants.
package swdsm

import (
	"fmt"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
)

// The cost model, scaled to the 25 MHz PLUS node.
const (
	// SoftwareFault is the per-fault kernel overhead at the faulting
	// node: trap, page-fault handler, request construction. The paper
	// cites "a few milliseconds on one-VAX-MIP machines"; 25000 cycles
	// is 1 ms.
	SoftwareFault sim.Cycles = 25000
	// ServiceCost is the software handling cost at the manager/owner
	// for each protocol message (100 µs).
	ServiceCost sim.Cycles = 2500
	// PageTransfer is the time to ship one 4 KB page over a link: 1024
	// words at 2 cycles/word, matching the mesh flit time.
	PageTransfer sim.Cycles = 2048
	// LocalAccess is a memory access that hits with sufficient rights,
	// the same as PLUS's local memory read.
	LocalAccess sim.Cycles = 6
)

// Config sets the software-DSM machine's geometry.
type Config struct {
	// MeshW, MeshH give the node grid (latencies shared with PLUS).
	MeshW, MeshH int
}

type access int

const (
	accessNone access = iota
	accessRead
	accessWrite
)

// pageState is the manager's view of one page.
type pageState struct {
	owner   mesh.NodeID
	copies  map[mesh.NodeID]bool // readers (excluding the owner)
	manager mesh.NodeID
}

// Machine is the software-DSM system: because every protocol action is
// synchronous kernel code, the simulation can advance a single global
// clock per operation rather than run a message-level event loop — the
// latencies still come from the same mesh model.
type Machine struct {
	net   *mesh.Mesh
	pages map[memory.VPage]*pageState
	// rights[node][page] is the node's current access level.
	rights []map[memory.VPage]access
	data   map[memory.VPage][]memory.Word
	// clock[node] is each node's local completion time; Elapsed is
	// their max. Single-threaded-per-node execution, like the PLUS
	// comparison traces.
	clock []sim.Cycles

	// Stats.
	ReadFaults, WriteFaults, Invalidations, PageTransfers uint64
}

// New builds a software-DSM machine.
func New(cfg Config) *Machine {
	net := mesh.New(sim.NewEngine(), mesh.DefaultConfig(cfg.MeshW, cfg.MeshH))
	n := cfg.MeshW * cfg.MeshH
	m := &Machine{
		net:    net,
		pages:  make(map[memory.VPage]*pageState),
		rights: make([]map[memory.VPage]access, n),
		data:   make(map[memory.VPage][]memory.Word),
		clock:  make([]sim.Cycles, n),
	}
	for i := range m.rights {
		m.rights[i] = make(map[memory.VPage]access)
	}
	return m
}

// Alloc creates a page managed and initially owned by home.
func (m *Machine) Alloc(home mesh.NodeID, vp memory.VPage) {
	if _, dup := m.pages[vp]; dup {
		panic(fmt.Sprintf("swdsm: page %d allocated twice", vp))
	}
	m.pages[vp] = &pageState{owner: home, manager: home, copies: map[mesh.NodeID]bool{}}
	m.data[vp] = make([]memory.Word, memory.PageWords)
	m.rights[home][vp] = accessWrite
}

// oneWay returns the mesh latency between two nodes (zero for self).
func (m *Machine) oneWay(a, b mesh.NodeID) sim.Cycles {
	if a == b {
		return 0
	}
	return m.net.Latency(a, b)
}

// Read performs a read by node at va, charging the node's clock.
func (m *Machine) Read(node mesh.NodeID, va memory.VAddr) memory.Word {
	vp := va.Page()
	st := m.pages[vp]
	if st == nil {
		panic(fmt.Sprintf("swdsm: read of unallocated page %d", vp))
	}
	if m.rights[node][vp] == accessNone {
		m.readFault(node, vp, st)
	}
	m.clock[node] += LocalAccess
	return m.data[vp][va.Offset()]
}

// Write performs a write by node at va.
func (m *Machine) Write(node mesh.NodeID, va memory.VAddr, v memory.Word) {
	vp := va.Page()
	st := m.pages[vp]
	if st == nil {
		panic(fmt.Sprintf("swdsm: write of unallocated page %d", vp))
	}
	if m.rights[node][vp] != accessWrite {
		m.writeFault(node, vp, st)
	}
	m.clock[node] += LocalAccess
	m.data[vp][va.Offset()] = v
}

// readFault obtains a read copy: node → manager → owner → node.
func (m *Machine) readFault(node mesh.NodeID, vp memory.VPage, st *pageState) {
	m.ReadFaults++
	c := &m.clock[node]
	*c += SoftwareFault
	*c += m.oneWay(node, st.manager) + ServiceCost // request to manager
	*c += m.oneWay(st.manager, st.owner) + ServiceCost
	*c += m.oneWay(st.owner, node) + PageTransfer // page ships back
	m.PageTransfers++
	// Owner demotes to reader; faulting node gains read access.
	m.rights[st.owner][vp] = accessRead
	st.copies[st.owner] = true
	st.copies[node] = true
	m.rights[node][vp] = accessRead
}

// writeFault obtains exclusive ownership: invalidate all copies, ship
// the page, transfer ownership.
func (m *Machine) writeFault(node mesh.NodeID, vp memory.VPage, st *pageState) {
	m.WriteFaults++
	c := &m.clock[node]
	*c += SoftwareFault
	*c += m.oneWay(node, st.manager) + ServiceCost
	// Invalidations fan out from the manager; the fault completes after
	// the slowest acknowledgement.
	var worst sim.Cycles
	for reader := range st.copies {
		if reader == node {
			continue
		}
		m.Invalidations++
		rt := 2*m.oneWay(st.manager, reader) + ServiceCost
		if rt > worst {
			worst = rt
		}
		m.rights[reader][vp] = accessNone
	}
	if st.owner != node {
		m.rights[st.owner][vp] = accessNone
		rt := m.oneWay(st.manager, st.owner) + ServiceCost +
			m.oneWay(st.owner, node) + PageTransfer
		if rt > worst {
			worst = rt
		}
		m.PageTransfers++
	}
	*c += worst
	st.copies = map[mesh.NodeID]bool{}
	st.owner = node
	m.rights[node][vp] = accessWrite
}

// Compute charges local computation at node.
func (m *Machine) Compute(node mesh.NodeID, c sim.Cycles) {
	m.clock[node] += c
}

// Elapsed returns the slowest node's clock (the parallel makespan for
// independent per-node traces).
func (m *Machine) Elapsed() sim.Cycles {
	var max sim.Cycles
	for _, c := range m.clock {
		if c > max {
			max = c
		}
	}
	return max
}

// Peek reads page data directly (for validation).
func (m *Machine) Peek(va memory.VAddr) memory.Word {
	return m.data[va.Page()][va.Offset()]
}

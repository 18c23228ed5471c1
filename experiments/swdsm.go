package experiments

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/swdsm"
)

// The §4 extension measures the paper's Related Work claim: software
// shared-virtual-memory systems pay millisecond-scale kernel overhead
// per coherence action because "the basic mechanism is paging", while
// PLUS handles the same sharing in hardware at word grain. The same
// deterministic fine-grain-sharing trace runs on both systems: every
// node repeatedly writes its own word of one shared page and reads a
// neighbour's word.
//
// On PLUS the page is replicated everywhere: reads are local, writes
// propagate in the background. On the page-DSM every write faults,
// invalidates all readers and ships 4 KB — the false-sharing ping-pong
// that motivated hardware DSM designs.

const swdsmProcs = 8

// swdsmPlusRow runs the trace on the PLUS hardware simulator.
func swdsmPlusRow(iters int, o Options, name string) (AblationRow, error) {
	m, err := core.NewMachine(*o.machine(name, 4, 2))
	if err != nil {
		return AblationRow{}, err
	}
	shared := m.Alloc(0, 1)
	for p := 1; p < swdsmProcs; p++ {
		m.Replicate(shared, mesh.NodeID(p))
	}
	// Node 0 is a pure reader (a monitor thread), so the page-DSM run
	// also exhibits read-copy invalidations, not just owner ping-pong.
	for p := 0; p < swdsmProcs; p++ {
		m.Spawn(mesh.NodeID(p), func(t *proc.Thread) {
			mine := shared + memory.VAddr(p)
			theirs := shared + memory.VAddr((p+1)%swdsmProcs)
			for i := 0; i < iters; i++ {
				if p != 0 {
					t.Write(mine, memory.Word(uint32(i)))
				}
				t.Read(theirs)
				t.Compute(200)
			}
			t.Fence()
		})
	}
	elapsed, err := m.Run()
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:    "PLUS (hardware, word grain)",
		Elapsed:  elapsed,
		Messages: m.Stats().Messages(),
		Extra:    fmt.Sprintf("updates %d", m.Stats().MsgUpdate),
	}, nil
}

// swdsmSVMRow runs the identical trace on the page-grain software
// shared-virtual-memory comparator.
func swdsmSVMRow(iters int) (AblationRow, error) {
	sw := swdsm.New(swdsm.Config{MeshW: 4, MeshH: 2})
	sw.Alloc(0, 0)
	base := memory.VPage(0).Base()
	// Round-robin the same per-node iterations: the interleaving
	// approximates concurrent execution; each node's clock accumulates
	// its own costs and the makespan is the slowest node.
	for i := 0; i < iters; i++ {
		for p := 0; p < swdsmProcs; p++ {
			node := mesh.NodeID(p)
			if p != 0 {
				sw.Write(node, base+memory.VAddr(p), memory.Word(uint32(i)))
			}
			sw.Read(node, base+memory.VAddr((p+1)%swdsmProcs))
			sw.Compute(node, 200)
		}
	}
	return AblationRow{
		Label:    "software SVM (page grain)",
		Elapsed:  sw.Elapsed(),
		Messages: sw.ReadFaults + sw.WriteFaults,
		Extra: fmt.Sprintf("%d faults, %d page transfers, %d invalidations (messages column = faults)",
			sw.ReadFaults+sw.WriteFaults, sw.PageTransfers, sw.Invalidations),
	}, nil
}

// swdsmPoints runs the two systems as two independent sweep points.
func swdsmPoints(o Options) []Point[AblationRow] {
	iters := 60
	if o.Quick {
		iters = 20
	}
	return []Point[AblationRow]{
		{Name: "ext swdsm PLUS", Run: func() (AblationRow, error) { return swdsmPlusRow(iters, o, "ext swdsm PLUS") }},
		{Name: "ext swdsm software SVM", Run: func() (AblationRow, error) { return swdsmSVMRow(iters) }},
	}
}

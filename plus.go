// Package plus is a simulator and library reproduction of PLUS, the
// distributed shared-memory multiprocessor of Bisiani and Ravishankar
// (ISCA 1990).
//
// PLUS accelerates a single multithreaded, CPU-bound process on a mesh
// of processor+memory nodes. Its two signature mechanisms, both
// implemented here in full, are:
//
//   - Non-demand, software-controlled replication of 4 KB pages, kept
//     coherent at word grain by a hardware write-update protocol: every
//     write is performed at the page's master copy and propagated down
//     an ordered copy-list; the last copy acknowledges the writer.
//   - Delayed operations: split-transaction read-modify-writes (xchng,
//     fetch-and-add, queue, dequeue, min-xchng, ...) whose issue and
//     result retrieval are separate instructions, letting the processor
//     overlap synchronization latency with computation.
//
// The machine model is a deterministic discrete-event simulation with
// the paper's cycle costs (40 ns cycles, 24-cycle adjacent round trip,
// 39/52-cycle delayed-op execution, 8 outstanding writes and delayed
// ops per node). Application code is ordinary Go driven through
// *plus.Thread, mirroring the paper's execution-driven methodology.
//
// A minimal program:
//
//	cfg := plus.DefaultConfig(4, 4) // 16 nodes
//	m, _ := plus.New(cfg)
//	data := m.Alloc(0, 1)           // one page homed on node 0
//	m.Replicate(data, 5, 10)        // copies on nodes 5 and 10
//	m.Spawn(5, func(t *plus.Thread) {
//		t.Write(data, 42)       // propagates master-first to all copies
//		t.Fence()               // wait for global visibility
//		old := t.Verify(t.Fadd(data, 1))
//		_ = old
//	})
//	elapsed, err := m.Run()
//
// Subpackages: plus/sync provides the paper's synchronization
// constructs (the Table 3-2 queue lock, spin locks, barriers,
// semaphores); plus/apps provides the evaluation workloads (shortest
// path, beam search, a production system, synthetic loads) used to
// regenerate every table and figure of the paper.
package plus

import (
	"plus/internal/coherence"
	"plus/internal/core"
	"plus/internal/kernel"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// Core machine types.
type (
	// Machine is a complete simulated PLUS multiprocessor.
	Machine = core.Machine
	// Config describes a machine; start from DefaultConfig.
	Config = core.Config
	// Thread is one application thread running on a simulated
	// processor; all shared-memory operations go through it. Calls
	// that return nothing queue and the body runs on; Go code between
	// two calls runs when the earlier value-returning call returns. A
	// body that touches the machine other than through its Thread
	// calls t.Now() first.
	Thread = proc.Thread
	// Handle identifies an in-flight delayed operation.
	Handle = proc.Handle
	// Kernel exposes page placement, replication and migration.
	Kernel = kernel.Kernel
)

// Value and address types.
type (
	// Word is the 32-bit memory word, the unit of access and coherence.
	Word = memory.Word
	// VAddr is a word-grained virtual address in the single shared
	// address space.
	VAddr = memory.VAddr
	// VPage is a virtual page number (4 KB / 1024-word pages).
	VPage = memory.VPage
	// NodeID identifies a mesh node (row-major).
	NodeID = mesh.NodeID
	// Cycles measures virtual time in 40 ns processor cycles.
	Cycles = sim.Cycles
	// Timing holds the machine's cache depths, the costs the
	// ablations vary.
	Timing = timing.Timing
	// Op identifies a delayed operation (Table 3-1).
	Op = coherence.Op
	// MachineStats aggregates the instrumentation counters.
	MachineStats = stats.Machine
	// NodeStats holds one node's counters.
	NodeStats = stats.Node
	// Observer records a machine's structured protocol events, latency
	// histograms and time-series samples; attach one with
	// Config.Observe.
	Observer = stats.Observer
	// ObserveConfig sizes an Observer's ring and selects what it
	// records.
	ObserveConfig = stats.ObserveConfig
	// Mode selects the processor's latency reaction (run-to-block or
	// context switching).
	Mode = proc.Mode
)

// Page geometry, hardware flag bit and queue layout.
const (
	// PageWords is the page size in words (4 KB pages of 32-bit words).
	PageWords = memory.PageWords
	// TopBit is the hardware flag bit used by queue, dequeue,
	// fetch-and-set and cond-xchng.
	TopBit = memory.TopBit
	// MaxQueueSize is the queue/dequeue wrap modulus: queue slots are
	// page offsets 0..MaxQueueSize-1, the control words live above.
	MaxQueueSize = timing.MaxQueueSize
)

// Processor modes.
const (
	// ModeRunToBlock is the PLUS design point: delayed operations hide
	// latency; blocking operations stall the processor.
	ModeRunToBlock = proc.RunToBlock
	// ModeSwitchOnSync is the context-switching alternative of §3.4:
	// switch threads at every synchronization issue, paying
	// Config.SwitchCost cycles.
	ModeSwitchOnSync = proc.SwitchOnSync
)

// Delayed operations (Table 3-1).
const (
	OpXchng       = coherence.OpXchng
	OpCondXchng   = coherence.OpCondXchng
	OpFadd        = coherence.OpFadd
	OpFetchSet    = coherence.OpFetchSet
	OpQueue       = coherence.OpQueue
	OpDequeue     = coherence.OpDequeue
	OpMinXchng    = coherence.OpMinXchng
	OpDelayedRead = coherence.OpDelayedRead
)

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }

// DefaultConfig returns a paper-calibrated machine on a w x h mesh.
func DefaultConfig(w, h int) Config { return core.DefaultConfig(w, h) }

// NewObserver returns an observer to set as Config.Observe; one
// observer serves exactly one machine.
func NewObserver(cfg ObserveConfig) *Observer { return stats.NewObserver(cfg) }

// DefaultTiming returns the paper's cache depths (§5). The cycle costs
// are fixed at the paper's values (§3.1, Table 3-1), with documented
// choices where the paper is silent.
func DefaultTiming() Timing { return timing.Default() }

// AllOps lists the eight delayed operations in Table 3-1 order.
func AllOps() []Op { return coherence.Ops() }

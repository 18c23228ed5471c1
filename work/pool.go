// Package work provides the distributed work-queue fabric the PLUS
// evaluation applications share: per-node hardware queues built on the
// queue/dequeue delayed operations (§2.3 of the paper: "Our
// implementation uses multiple queues since, owing to queue bandwidth
// limitation, a single queue introduces serialization"), work stealing
// for load balance ("each processor must extract work from other
// queues when its local queue is empty"), and a fetch-and-add
// termination counter.
//
// A queued-flag word per item bounds every hardware queue's occupancy
// to its distinct item range, so the fixed-capacity hardware queues
// (MaxQueueSize words within one page) can never overflow into a
// livelock — the paper's "spin if queue is full, unlikely" case is
// made impossible rather than unlikely. Owners with more items than
// one queue's capacity get several hardware queues.
package work

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/timing"
)

const idleBackoff sim.Cycles = 200

// Pool distributes integer work items [0, nitems) over the
// participating processors' hardware queues.
type Pool struct {
	m      *core.Machine
	procs  int
	nitems int

	active memory.VAddr // outstanding-work counter (queued + in process)
	flags  memory.VAddr // per-item queued flag (top bit)

	// Static item→queue mapping (an address computation, not shared
	// state): owner and sub-queue index per item.
	owner []int
	subq  []int
	// Per (proc, sub-queue) control-word addresses.
	tails [][]memory.VAddr
	heads [][]memory.VAddr
}

// New builds a pool for nitems items over the first procs processors.
// ownerOf assigns each item to its owning processor (the paper
// distributes vertices evenly among the nodes); it must be a pure
// function.
func New(m *core.Machine, procs, nitems int, ownerOf func(int) int) *Pool {
	if procs < 1 || nitems < 1 {
		panic("work: pool needs at least one processor and one item")
	}
	p := &Pool{
		m: m, procs: procs, nitems: nitems,
		owner: make([]int, nitems),
		subq:  make([]int, nitems),
		tails: make([][]memory.VAddr, procs),
		heads: make([][]memory.VAddr, procs),
	}
	maxQ := timing.MaxQueueSize

	// Chunk each owner's items into sub-queues of at most maxQ
	// distinct items, so a queue can never receive more entries than
	// it has slots.
	counts := make([]int, procs)
	for item := 0; item < nitems; item++ {
		o := ownerOf(item)
		if o < 0 || o >= procs {
			panic(fmt.Sprintf("work: ownerOf(%d) = %d out of range", item, o))
		}
		p.owner[item] = o
		p.subq[item] = counts[o] / maxQ
		counts[o]++
	}
	for o := 0; o < procs; o++ {
		nq := (counts[o]+maxQ-1)/maxQ + 1 // at least one queue per owner
		for q := 0; q < nq; q++ {
			qp := m.Alloc(mesh.NodeID(o), 1)
			p.tails[o] = append(p.tails[o], qp+memory.VAddr(maxQ))
			p.heads[o] = append(p.heads[o], qp+memory.VAddr(maxQ)+1)
		}
	}

	// Queued-flag array, block-homed by owner.
	pages := (nitems + memory.PageWords - 1) / memory.PageWords
	homes := make([]mesh.NodeID, pages)
	for i := range homes {
		homes[i] = mesh.NodeID(p.owner[min(i*memory.PageWords, nitems-1)])
	}
	p.flags = m.AllocHomed(homes...)
	p.active = m.Alloc(0, 1)
	return p
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *Pool) flagVA(item int) memory.VAddr { return p.flags + memory.VAddr(item) }

// Seed enqueues initial items outside simulated time (before Run).
func (p *Pool) Seed(items ...int) {
	maxQ := uint32(timing.MaxQueueSize)
	tails := make(map[[2]int]uint32)
	for _, item := range items {
		if p.m.Peek(p.flagVA(item))&memory.TopBit != 0 {
			continue
		}
		p.m.Poke(p.flagVA(item), memory.TopBit)
		o, q := p.owner[item], p.subq[item]
		key := [2]int{o, q}
		slot := tails[key]
		qpage := p.tails[o][q] - memory.VAddr(maxQ)
		p.m.Poke(qpage+memory.VAddr(slot), memory.TopBit|memory.Word(uint32(item)))
		tails[key] = slot + 1
		p.m.Poke(p.active, p.m.Peek(p.active)+1)
	}
	for key, t := range tails {
		p.m.Poke(p.tails[key[0]][key[1]], memory.Word(t))
	}
}

// Add schedules an item (idempotent: an item already queued is not
// queued twice). The caller must itself be processing an item — its
// own unit keeps the termination counter positive while the insertion
// is in flight. After Add returns, a later Get of the item is
// guaranteed to observe memory as of the fetch-and-set's serialization
// at the flag's master; callers that publish state for the item must
// do so (with completed writes or verified RMWs) before calling Add.
func (p *Pool) Add(t *proc.Thread, item int) {
	// Fetch-and-set elects one scheduler per queued lifetime.
	if t.FetchSetSync(p.flagVA(item))&memory.TopBit != 0 {
		return
	}
	// The increment must be applied before the item is dequeuable, or
	// a racing worker could observe a transient zero and terminate.
	t.Verify(t.Fadd(p.active, 1))
	o, q := p.owner[item], p.subq[item]
	for t.EnqueueSync(p.tails[o][q], memory.Word(uint32(item)))&memory.TopBit != 0 {
		// Unreachable by construction (dedup bounds occupancy), kept
		// as a hardware-faithful guard.
		t.Compute(idleBackoff)
	}
}

// Done retires the work unit the caller obtained from Get (or was
// seeded with).
func (p *Pool) Done(t *proc.Thread) {
	t.Verify(t.Fadd(p.active, -1))
}

// Get returns the next item for processor self: from its own queues
// first, then by stealing from every other processor's queues. It
// returns ok=false only when the pool has terminated (no queued or
// in-process items anywhere). Before returning an item it clears the
// item's queued flag with a verified exchange, so any state the caller
// reads afterwards through the masters reflects every update that
// decided not to re-queue the item.
func (p *Pool) Get(t *proc.Thread, self int) (int, bool) {
	if self < 0 || self >= p.procs {
		panic(fmt.Sprintf("work: Get from processor %d of %d", self, p.procs))
	}
	return p.getScan(t, func(i int) int { return (self + i) % p.procs }, p.procs)
}

// GetScoped is Get restricted to the queues of the given owners — the
// paper's queue-sharing policy, where a processor extracts work only
// from queues it holds a replica of ("We have replicated the queues
// and vertices on more than one processor and found a substantial
// performance increase due to better load balancing", §2.5). The
// owners list must include self; items in unshared queues are drained
// by their own group, and the global termination counter still ends
// the loop — the waiting this policy causes is exactly the idle time
// Figure 2-1 measures for the unreplicated configuration.
func (p *Pool) GetScoped(t *proc.Thread, self int, owners []int) (int, bool) {
	if self < 0 || self >= p.procs {
		panic(fmt.Sprintf("work: Get from processor %d of %d", self, p.procs))
	}
	return p.getScan(t, func(i int) int { return owners[i] }, len(owners))
}

func (p *Pool) getScan(t *proc.Thread, ownerAt func(int) int, n int) (int, bool) {
	// Queue polling is processor activity but not useful work: the
	// utilization Figure 2-1 reports is computation over elapsed time,
	// and an idle processor probing for work stays idle.
	t.BeginIdle()
	defer t.EndIdle()
	for {
		for i := 0; i < n; i++ {
			o := ownerAt(i)
			for q := range p.heads[o] {
				w := t.DequeueSync(p.heads[o][q])
				if w&memory.TopBit == 0 {
					continue
				}
				item := int(w &^ memory.TopBit)
				// Clear-before-read: verified so the flag's master has
				// applied it before the caller re-reads item state; an
				// update that then skips re-queueing serialized its
				// data before our read, an earlier one re-queues.
				t.XchngSync(p.flagVA(item), 0)
				return item, true
			}
		}
		if t.Read(p.active) == 0 {
			return 0, false
		}
		t.Compute(idleBackoff)
	}
}

// Procs returns the number of participating processors.
func (p *Pool) Procs() int { return p.procs }

// Queues returns how many hardware queues processor o owns.
func (p *Pool) Queues(o int) int { return len(p.heads[o]) }

// QueuePages returns the virtual addresses of processor o's queue
// pages (for replication experiments).
func (p *Pool) QueuePages(o int) []memory.VAddr {
	maxQ := memory.VAddr(timing.MaxQueueSize)
	out := make([]memory.VAddr, len(p.tails[o]))
	for i, tc := range p.tails[o] {
		out[i] = tc - maxQ
	}
	return out
}

// FlagPages returns the flag array's page base addresses (for
// replication experiments).
func (p *Pool) FlagPages() []memory.VAddr {
	pages := (p.nitems + memory.PageWords - 1) / memory.PageWords
	out := make([]memory.VAddr, pages)
	for i := range out {
		out[i] = p.flags + memory.VAddr(i*memory.PageWords)
	}
	return out
}

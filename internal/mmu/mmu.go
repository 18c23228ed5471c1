// Package mmu models each node's virtual-memory mapping (§2.4).
//
// PLUS executes one multithreaded process, so all nodes share a single
// virtual address space, but — because of replication — different
// nodes may map the same virtual page to different physical copies.
// Each node maintains its own page table holding only the mappings it
// actively uses; a miss traps to the kernel, which consults the
// centralized table and fills the local entry lazily.
package mmu

import (
	"math"
	"math/bits"

	"plus/internal/memory"
	"plus/internal/node"
)

// Table is one node's translation state: its page table (virtual page
// → global physical page, the node's chosen copy, normally the closest
// one), the hardware TLB over it, and the remote-reference counters
// §2.4's hardware keeps per page. All three live in one open-addressing
// table keyed by virtual page (linear probing, Fibonacci hashing),
// sized to the pages the node has touched, so a TLB hit, a page-table
// hit with refill and a counter bump each read one slot. The TLB is an
// LRU list threaded through the resident entries, capped at its
// capacity. An entry is never deleted: an invalidation or flush clears
// its mapped and resident flags, and its counter lives on.
type Table struct {
	slots []entry
	shift uint8 // 32 - log2(len(slots)): the hash keeps the top bits
	used  int   // occupied slots

	// tlbCap bounds the resident entries; head is the most and tail
	// the least recently used, -1 when the TLB is empty.
	tlbCap     int
	head, tail int32
	resident   int

	// OnInstall, when non-nil, observes every mapping install — a lazy
	// fault fill from the processor or a kernel remap (replication
	// switching a node to its local copy). core wires it to emit
	// EvAccMap when the data-access event layer is on, so a trace
	// records which physical copy each node's virtual page resolved to.
	OnInstall func(p memory.VPage, g memory.GPage)
}

// entry is one virtual page's slot: 28 bytes, so a probe usually reads
// one cache line.
type entry struct {
	vp         memory.VPage
	node       int32 // the mapping's node; node.ID narrowed to the slot
	page       memory.PPage
	prev, next int32 // TLB recency links, valid while resident
	refs       uint32
	flags      uint8
}

const (
	fUsed        uint8 = 1 << iota // the slot holds a page
	fMapped                        // the page table maps the page
	fResident                      // the TLB holds the mapping
	fReplicating                   // a competitive replication is in flight
)

// New returns an empty page table with a 64-entry TLB.
func New() *Table { return NewSized(64) }

// NewSized returns an empty page table with a TLB of tlbEntries.
func NewSized(tlbEntries int) *Table {
	t := &Table{tlbCap: max(tlbEntries, 1), head: -1, tail: -1}
	t.growTo(8)
	return t
}

func (e *entry) gpage() memory.GPage { return memory.GPage{Node: node.ID(e.node), Page: e.page} }

// Translate performs the hardware translation sequence: TLB first,
// then the page table (refilling the TLB on a table hit). tlbHit
// distinguishes a free translation from one paying the refill cost;
// ok=false means the mapping is absent and the kernel must resolve it.
func (t *Table) Translate(p memory.VPage) (g memory.GPage, tlbHit, ok bool) {
	i := t.find(p)
	if i >= 0 && t.slots[i].flags&fResident != 0 {
		t.touch(i)
		return t.slots[i].gpage(), true, true
	}
	if i < 0 || t.slots[i].flags&fMapped == 0 {
		return memory.GPage{}, false, false
	}
	t.admit(i)
	return t.slots[i].gpage(), false, true
}

// Lookup returns the mapping for page p, if present, leaving the TLB
// untouched.
func (t *Table) Lookup(p memory.VPage) (memory.GPage, bool) {
	if i := t.find(p); i >= 0 && t.slots[i].flags&fMapped != 0 {
		return t.slots[i].gpage(), true
	}
	return memory.GPage{}, false
}

// Install fills (or replaces) the mapping for page p, updating the
// TLB so the new mapping takes effect immediately (e.g. after a
// replication switches a node to its local copy).
func (t *Table) Install(p memory.VPage, g memory.GPage) {
	i := t.slot(p)
	e := &t.slots[i]
	e.flags |= fMapped
	e.node, e.page = int32(g.Node), g.Page
	if e.flags&fResident != 0 {
		t.touch(i)
	} else {
		t.admit(i)
	}
	if t.OnInstall != nil {
		t.OnInstall(p, g)
	}
}

// Invalidate removes the mapping for page p (no-op if absent),
// shooting the TLB entry down with it. The page's counter survives.
func (t *Table) Invalidate(p memory.VPage) {
	if i := t.find(p); i >= 0 {
		e := &t.slots[i]
		e.flags &^= fMapped
		if e.flags&fResident != 0 {
			t.evict(i)
		}
	}
}

// Flush drops every mapping and the whole TLB, forcing lazy refills.
// The counters survive.
func (t *Table) Flush() {
	for i := range t.slots {
		t.slots[i].flags &^= fMapped | fResident
	}
	t.resident, t.head, t.tail = 0, -1, -1
}

// CountRef bumps page p's remote-reference counter and returns its new
// value, with whether a competitive replication of p onto this node is
// in flight. The counter saturates at 2^32-1, far past any threshold.
func (t *Table) CountRef(p memory.VPage) (refs uint64, replicating bool) {
	e := &t.slots[t.slot(p)]
	if e.refs != math.MaxUint32 {
		e.refs++
	}
	return uint64(e.refs), e.flags&fReplicating != 0
}

// RefCount returns page p's remote-reference counter.
func (t *Table) RefCount(p memory.VPage) uint64 {
	if i := t.find(p); i >= 0 {
		return uint64(t.slots[i].refs)
	}
	return 0
}

// StartReplication marks a competitive replication of p onto this node
// as in flight, so further references do not trigger another.
func (t *Table) StartReplication(p memory.VPage) { t.slots[t.slot(p)].flags |= fReplicating }

// EndReplication clears p's in-flight mark and its counter: the
// replication has landed and counting starts over.
func (t *Table) EndReplication(p memory.VPage) {
	e := &t.slots[t.slot(p)]
	e.flags &^= fReplicating
	e.refs = 0
}

// EachRef calls f for every page with a nonzero counter, in slot order.
func (t *Table) EachRef(f func(p memory.VPage, refs uint64)) {
	for i := range t.slots {
		if e := &t.slots[i]; e.refs != 0 {
			f(e.vp, uint64(e.refs))
		}
	}
}

// home is p's first probe slot (Fibonacci hashing).
func (t *Table) home(p memory.VPage) int32 {
	return int32(uint32(p) * 0x9E3779B9 >> t.shift)
}

// find returns p's slot, or -1.
func (t *Table) find(p memory.VPage) int32 {
	mask := int32(len(t.slots) - 1)
	for i := t.home(p); t.slots[i].flags&fUsed != 0; i = (i + 1) & mask {
		if t.slots[i].vp == p {
			return i
		}
	}
	return -1
}

// slot returns p's slot, making an empty entry for it (growing the
// table past three quarters full) if it has none.
func (t *Table) slot(p memory.VPage) int32 {
	if i := t.find(p); i >= 0 {
		return i
	}
	if 4*(t.used+1) > 3*len(t.slots) {
		t.growTo(2 * len(t.slots))
	}
	t.used++
	return t.place(entry{vp: p, flags: fUsed})
}

// place stores e in the first free slot on its probe path.
func (t *Table) place(e entry) int32 {
	mask := int32(len(t.slots) - 1)
	i := t.home(e.vp)
	for t.slots[i].flags&fUsed != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
	return i
}

// Reserve makes room for n more pages in one rehash: it grows the
// table to the capacity installing them one at a time would reach, so
// a bulk install (core.Machine.Prefault) allocates its slots once
// instead of at every doubling on the way. Pages already present count
// as new, so reserve only for pages the caller expects to be absent.
func (t *Table) Reserve(n int) {
	size := len(t.slots)
	for 4*(t.used+n) > 3*size {
		size *= 2
	}
	if size > len(t.slots) {
		t.growTo(size)
	}
}

// growTo rehashes into size slots, a power of two. Lazy growth doubles
// the table once an install would fill it past three quarters. Every
// entry moves, so the TLB list is rebuilt: resident entries are
// re-placed from the least recently used up, each pushed to the front,
// which relinks them in their old order.
func (t *Table) growTo(size int) {
	old, tail := t.slots, t.tail
	t.slots = make([]entry, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	t.head, t.tail = -1, -1
	for k := range old {
		if old[k].flags&(fUsed|fResident) == fUsed {
			t.place(old[k])
		}
	}
	for k := tail; k >= 0; k = old[k].prev {
		t.pushFront(t.place(old[k]))
	}
}

// admit makes slot i's mapping resident and most recently used,
// evicting the least recently used entry from a full TLB.
func (t *Table) admit(i int32) {
	if t.resident == t.tlbCap {
		t.evict(t.tail)
	}
	t.slots[i].flags |= fResident
	t.resident++
	t.pushFront(i)
}

// evict drops slot i from the TLB.
func (t *Table) evict(i int32) {
	t.unlink(i)
	t.slots[i].flags &^= fResident
	t.resident--
}

// touch makes slot i the most recently used.
func (t *Table) touch(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

func (t *Table) unlink(i int32) {
	e := &t.slots[i]
	if e.prev >= 0 {
		t.slots[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.slots[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *Table) pushFront(i int32) {
	e := &t.slots[i]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

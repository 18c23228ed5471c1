// Package mmu models each node's virtual-memory mapping (§2.4).
//
// PLUS executes one multithreaded process, so all nodes share a single
// virtual address space, but — because of replication — different
// nodes may map the same virtual page to different physical copies.
// Each node maintains its own page table holding only the mappings it
// actively uses; a miss traps to the kernel, which consults the
// centralized table and fills the local entry lazily.
//
// A node's Table keeps its page table and its reference counters in
// one hash table of 16-byte entries, and its TLB in a separate array
// of at most MaxTLB ways that name the entries they cache.
package mmu

import (
	"fmt"
	"math"
	"math/bits"

	"plus/internal/memory"
	"plus/internal/node"
)

// Table is one node's translation state: its page table (virtual page
// → global physical page, the node's chosen copy, normally the closest
// one), the hardware TLB over it, and the remote-reference counters
// §2.4's hardware keeps per page. The page table and the counters live
// in one open-addressing table keyed by virtual page (linear probing,
// Fibonacci hashing), sized to the pages the node has touched, so a
// TLB hit, a page-table hit with refill and a counter bump each read
// one slot. The TLB is a separate array of ways, one per resident
// mapping, each naming the table slot it caches and linked into an LRU
// list; a slot names its way in one byte, 0 when not resident. An
// entry is never deleted: an invalidation or flush clears its mapping
// and frees its way, and its counter lives on.
type Table struct {
	slots []entry
	shift uint8 // 32 - log2(len(slots)): the hash keeps the top bits
	used  int   // occupied slots

	// ways[1:resident+1] are the TLB's resident ways; ways[0] is the
	// head of the LRU ring (its next is the most and its prev the least
	// recently used way). Allocated tlbCap+1 long on the first admit or
	// Reserve.
	ways     []way
	tlbCap   int
	resident int

	// OnInstall, when non-nil, observes every mapping install — a lazy
	// fault fill from the processor or a kernel remap (replication
	// switching a node to its local copy). core wires it to emit
	// EvAccMap when the data-access event layer is on, so a trace
	// records which physical copy each node's virtual page resolved to.
	OnInstall func(p memory.VPage, g memory.GPage)
}

// entry is one virtual page's slot: 16 bytes, so four share a cache
// line. node is the mapping's node.ID narrowed to 16 bits, which holds
// every node of the largest mesh (mesh.MaxNodes).
type entry struct {
	vp    memory.VPage
	page  memory.PPage
	refs  uint32
	node  uint16
	flags uint8
	way   uint8 // the TLB way holding the mapping, 0 when not resident
}

// way is one TLB entry: the table slot whose mapping it holds and its
// LRU ring links.
type way struct {
	slot       int32
	prev, next int16
}

// MaxTLB is the largest TLB a Table models: a slot's way index is one
// byte and way 0 is the ring head.
const MaxTLB = math.MaxUint8

const (
	fUsed        uint8 = 1 << iota // the slot holds a page
	fMapped                        // the page table maps the page
	fReplicating                   // a competitive replication is in flight
)

// New returns an empty page table with a 64-entry TLB.
func New() *Table { return NewSized(64) }

// NewSized returns an empty page table with a TLB of tlbEntries, at
// least one. It panics if tlbEntries exceeds MaxTLB: a larger TLB
// would need a wider way index in every entry.
func NewSized(tlbEntries int) *Table {
	if tlbEntries > MaxTLB {
		panic(fmt.Sprintf("mmu: %d TLB entries, at most %d", tlbEntries, MaxTLB))
	}
	t := &Table{tlbCap: max(tlbEntries, 1)}
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
	if i < 0 {
		return memory.GPage{}, false, false
	}
	e := &t.slots[i]
	if e.way != 0 {
		t.touch(int16(e.way))
		return e.gpage(), true, true
	}
	if e.flags&fMapped == 0 {
		return memory.GPage{}, false, false
	}
	t.admit(i)
	return e.gpage(), false, true
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
	e.node, e.page = uint16(g.Node), g.Page
	if e.way != 0 {
		t.touch(int16(e.way))
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
		if e.way != 0 {
			t.evict(int16(e.way))
		}
	}
}

// Flush drops every mapping and the whole TLB, forcing lazy refills.
// The counters survive.
func (t *Table) Flush() {
	for i := range t.slots {
		t.slots[i].flags &^= fMapped
		t.slots[i].way = 0
	}
	t.resident = 0
	if t.ways != nil {
		t.ways[0] = way{}
	}
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
// instead of at every doubling on the way, and allocates the TLB's
// ways if no install has yet. Pages already present count as new, so
// reserve only for pages the caller expects to be absent.
func (t *Table) Reserve(n int) {
	if n > 0 && t.ways == nil {
		t.ways = make([]way, t.tlbCap+1)
	}
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
// entry moves, so each resident way is pointed at its entry's new
// slot; the LRU ring is untouched.
func (t *Table) growTo(size int) {
	old := t.slots
	t.slots = make([]entry, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for k := range old {
		if old[k].flags&fUsed != 0 {
			i := t.place(old[k])
			if w := old[k].way; w != 0 {
				t.ways[w].slot = i
			}
		}
	}
}

// admit makes slot i's mapping resident in the most recently used way,
// taking the least recently used way from a full TLB.
func (t *Table) admit(i int32) {
	if t.ways == nil {
		t.ways = make([]way, t.tlbCap+1)
	}
	var w int16
	if t.resident == t.tlbCap {
		w = t.ways[0].prev
		t.slots[t.ways[w].slot].way = 0
		t.unlink(w)
	} else {
		t.resident++
		w = int16(t.resident)
	}
	t.ways[w].slot = i
	t.slots[i].way = uint8(w)
	t.pushFront(w)
}

// evict drops way w from the TLB and moves the last resident way into
// its place, so ways[1:resident+1] stay the resident ones.
func (t *Table) evict(w int16) {
	ws := t.ways
	t.unlink(w)
	t.slots[ws[w].slot].way = 0
	if last := int16(t.resident); w != last {
		ws[w] = ws[last]
		ws[ws[w].prev].next = w
		ws[ws[w].next].prev = w
		t.slots[ws[w].slot].way = uint8(w)
	}
	t.resident--
}

// touch makes way w the most recently used.
func (t *Table) touch(w int16) {
	if t.ways[0].next != w {
		t.unlink(w)
		t.pushFront(w)
	}
}

func (t *Table) unlink(w int16) {
	ws := t.ways
	x := ws[w]
	ws[x.prev].next = x.next
	ws[x.next].prev = x.prev
}

func (t *Table) pushFront(w int16) {
	ws := t.ways
	h := ws[0].next
	ws[w].prev, ws[w].next = 0, h
	ws[h].prev = w
	ws[0].next = w
}

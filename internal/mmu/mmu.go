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
// one hash table of 8-page groups, each a leaf of eight 12-byte
// entries, and its TLB in a separate array of at most MaxTLB ways that
// name the pages they cache.
package mmu

import (
	"fmt"
	"math"
	"slices"

	"plus/internal/memory"
	"plus/internal/node"
)

// Table is one node's translation state: its page table (virtual page
// → global physical page, the node's chosen copy, normally the closest
// one), the hardware TLB over it, and the remote-reference counters
// §2.4's hardware keeps per page. The page table and the counters live
// in one open-addressing table (linear probing, a Fibonacci hash
// reduced to the slot count by multiply-shift) whose slots each hold a
// group of groupPages pages and the leaf of their entries; leaves never
// move. The TLB is a separate array of ways, one per resident mapping,
// each naming its page and linked into an LRU list; an entry names its
// way in one byte, 0 when not resident. An entry is never deleted: an
// invalidation or flush clears its mapping and frees its way, and its
// counter lives on.
type Table struct {
	slots []group
	used  int // occupied slots

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

// A group is groupPages consecutive virtual pages, the unit a slot
// holds. Eight matches how runs fill their tables (seed 42): the record
// store's 131,328 mappings fall in 16,640 groups (7.9 per group), the
// beam search's 11,328 in 1,472 (7.7) and 16x16 SSSP's 7,783 in 2,995
// (2.6); 16-page groups made SSSP allocate 5 % more. A table grows once
// a new group would fill it past loadNum/loadDen of its slots: lazily
// to twice its slots (at least minSlots), in Reserve to what the range
// needs.
const (
	groupShift, groupPages, groupMask = 3, 1 << groupShift, groupPages - 1
	loadNum, loadDen, minSlots        = 3, 4, 8
)

// noSlots is every table's one empty slot until its first group: a
// lookup needs no empty-table test, and the load bound grows the table
// before anything is stored.
var noSlots = make([]group, 1)

// group is one slot: the group's key (its first page >> groupShift)
// and its leaf, nil in an empty slot.
type group struct {
	key  uint32
	leaf *leaf
}

// leaf holds a group's entries, entry i for page key<<groupShift | i.
type leaf [groupPages]entry

// entry is one virtual page's state: 12 bytes, its page implied by its
// slot and index. node is the mapping's node.ID narrowed to 16 bits,
// which holds every node of the largest mesh (mesh.MaxNodes).
type entry struct {
	page  memory.PPage
	refs  uint32
	node  uint16
	flags uint8
	way   uint8 // the TLB way holding the mapping, 0 when not resident
}

// way is one TLB entry: the virtual page whose mapping it holds and its
// LRU ring links.
type way struct {
	vp         memory.VPage
	prev, next int16
}

// MaxTLB is the largest TLB a Table models: an entry's way index is one
// byte and way 0 is the ring head.
const MaxTLB = math.MaxUint8

const (
	fMapped      uint8 = 1 << iota // the page table maps the page
	fReplicating                   // a competitive replication is in flight
)

// New returns an empty page table with a 64-entry TLB.
func New() *Table { return NewSized(64) }

// NewSized returns an empty page table with a TLB of tlbEntries, at
// least one. It panics if tlbEntries exceeds MaxTLB: a larger TLB
// would need a wider way index in every entry. The table allocates
// nothing until its first page.
func NewSized(tlbEntries int) *Table {
	if tlbEntries > MaxTLB {
		panic(fmt.Sprintf("mmu: %d TLB entries, at most %d", tlbEntries, MaxTLB))
	}
	return &Table{slots: noSlots, tlbCap: max(tlbEntries, 1)}
}

func (e *entry) gpage() memory.GPage { return memory.GPage{Node: node.ID(e.node), Page: e.page} }

// Translate performs the hardware translation sequence: TLB first,
// then the page table (refilling the TLB on a table hit). tlbHit
// distinguishes a free translation from one paying the refill cost;
// ok=false means the mapping is absent and the kernel must resolve it.
func (t *Table) Translate(p memory.VPage) (g memory.GPage, tlbHit, ok bool) {
	e := t.find(p)
	if e == nil {
		return memory.GPage{}, false, false
	}
	if e.way != 0 {
		t.touch(int16(e.way))
		return e.gpage(), true, true
	}
	if e.flags&fMapped == 0 {
		return memory.GPage{}, false, false
	}
	t.admit(p, e)
	return e.gpage(), false, true
}

// Lookup returns the mapping for page p, if present, leaving the TLB
// untouched.
func (t *Table) Lookup(p memory.VPage) (memory.GPage, bool) {
	if e := t.find(p); e != nil && e.flags&fMapped != 0 {
		return e.gpage(), true
	}
	return memory.GPage{}, false
}

// Install fills (or replaces) the mapping for page p, updating the
// TLB so the new mapping takes effect immediately (e.g. after a
// replication switches a node to its local copy).
func (t *Table) Install(p memory.VPage, g memory.GPage) {
	e := t.entry(p)
	e.flags |= fMapped
	e.node, e.page = uint16(g.Node), g.Page
	if e.way != 0 {
		t.touch(int16(e.way))
	} else {
		t.admit(p, e)
	}
	if t.OnInstall != nil {
		t.OnInstall(p, g)
	}
}

// Invalidate removes the mapping for page p (no-op if absent),
// shooting the TLB entry down with it. The page's counter survives.
func (t *Table) Invalidate(p memory.VPage) {
	if e := t.find(p); e != nil {
		e.flags &^= fMapped
		if e.way != 0 {
			t.evict(e)
		}
	}
}

// Flush drops every mapping and the whole TLB, forcing lazy refills.
// The counters survive.
func (t *Table) Flush() {
	for _, s := range t.slots {
		if s.leaf != nil {
			for j := range s.leaf {
				s.leaf[j].flags &^= fMapped
				s.leaf[j].way = 0
			}
		}
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
	e := t.entry(p)
	if e.refs != math.MaxUint32 {
		e.refs++
	}
	return uint64(e.refs), e.flags&fReplicating != 0
}

// RefCount returns page p's remote-reference counter.
func (t *Table) RefCount(p memory.VPage) uint64 {
	if e := t.find(p); e != nil {
		return uint64(e.refs)
	}
	return 0
}

// StartReplication marks a competitive replication of p onto this node
// as in flight, so further references do not trigger another.
func (t *Table) StartReplication(p memory.VPage) { t.entry(p).flags |= fReplicating }

// EndReplication clears p's in-flight mark and its counter: the
// replication has landed and counting starts over.
func (t *Table) EndReplication(p memory.VPage) {
	e := t.entry(p)
	e.flags &^= fReplicating
	e.refs = 0
}

// EachRef calls f for every page with a nonzero counter, in slot
// order, then page order within a group.
func (t *Table) EachRef(f func(p memory.VPage, refs uint64)) {
	for _, s := range t.slots {
		if s.leaf == nil {
			continue
		}
		for j, e := range s.leaf {
			if e.refs != 0 {
				f(memory.VPage(s.key<<groupShift|uint32(j)), uint64(e.refs))
			}
		}
	}
}

// probe returns the slot holding group key, or the empty slot that
// ends its probe path.
func (t *Table) probe(key uint32) int {
	i := int(uint64(key*0x9E3779B9) * uint64(len(t.slots)) >> 32)
	for t.slots[i].leaf != nil && t.slots[i].key != key {
		if i++; i == len(t.slots) {
			i = 0
		}
	}
	return i
}

// find returns p's entry, or nil.
func (t *Table) find(p memory.VPage) *entry {
	if l := t.slots[t.probe(uint32(p)>>groupShift)].leaf; l != nil {
		return &l[p&groupMask]
	}
	return nil
}

// entry returns p's entry, adding its group (and growing the table) if
// it has none.
func (t *Table) entry(p memory.VPage) *entry {
	if e := t.find(p); e != nil {
		return e
	}
	if loadDen*(t.used+1) > loadNum*len(t.slots) {
		t.growTo(max(2*len(t.slots), minSlots))
	}
	key, l := uint32(p)>>groupShift, new(leaf)
	t.slots[t.probe(key)] = group{key, l}
	t.used++
	return &l[p&groupMask]
}

// Reserve makes room for the n pages from first in one step, so a bulk
// install (core.Machine.Prefault) allocates nothing per page and no
// intermediate tables: it grows the table once, to the slots the
// range's new groups need at the load bound, allocates their leaves as
// one block, and allocates the TLB's ways if no install has yet.
// Reserving maps nothing.
func (t *Table) Reserve(first memory.VPage, n int) {
	if n <= 0 {
		return
	}
	if t.ways == nil {
		t.ways = make([]way, t.tlbCap+1)
	}
	lo := uint32(first) >> groupShift
	hi := uint32(min(uint64(first)+uint64(n)-1, math.MaxUint32) >> groupShift)
	added := 0
	for k := lo; k <= hi; k++ {
		if t.slots[t.probe(k)].leaf == nil {
			added++
		}
	}
	if need := (loadDen*(t.used+added) + loadNum - 1) / loadNum; need > len(t.slots) {
		t.growTo(need)
	}
	block := make([]leaf, added)
	for k := lo; k <= hi; k++ {
		if i := t.probe(k); t.slots[i].leaf == nil {
			t.slots[i] = group{k, &block[0]}
			block = block[1:]
		}
	}
	t.used += added
}

// growTo rehashes into at least size slots, taking every slot the
// allocation's size class holds. Leaves stay where they are, so the
// TLB's ways, which name pages, need no rewiring.
func (t *Table) growTo(size int) {
	old := t.slots
	t.slots = slices.Grow([]group(nil), size)
	t.slots = t.slots[:cap(t.slots)]
	for _, s := range old {
		if s.leaf != nil {
			t.slots[t.probe(s.key)] = s
		}
	}
}

// admit makes page p's mapping, entry e, resident in the most recently
// used way, taking the least recently used way from a full TLB.
func (t *Table) admit(p memory.VPage, e *entry) {
	if t.ways == nil {
		t.ways = make([]way, t.tlbCap+1)
	}
	var w int16
	if t.resident == t.tlbCap {
		w = t.ways[0].prev
		t.find(t.ways[w].vp).way = 0
		t.unlink(w)
	} else {
		t.resident++
		w = int16(t.resident)
	}
	t.ways[w].vp = p
	e.way = uint8(w)
	t.pushFront(w)
}

// evict drops entry e's way from the TLB and moves the last resident
// way into its place, so ways[1:resident+1] stay the resident ones.
func (t *Table) evict(e *entry) {
	ws := t.ways
	w := int16(e.way)
	t.unlink(w)
	e.way = 0
	if last := int16(t.resident); w != last {
		ws[w] = ws[last]
		ws[ws[w].prev].next = w
		ws[ws[w].next].prev = w
		t.find(ws[w].vp).way = uint8(w)
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

package mmu

import "plus/internal/memory"

// TLB models the processor's translation lookaside buffer over the
// node's page table: a small fully-associative LRU cache of virtual→
// global-physical page mappings. The paper leans on it in §2.4 —
// deleting a page copy forces every node to "update their address
// translation tables and flush their TLBs".
//
// The entries live in an open-addressing table (linear probing,
// backward-shift deletion) of twice the capacity, rounded up to a power
// of two, so the associative match reads one slot, usually one cache
// line; recency is an intrusive doubly-linked list through the slots.
// Lookup, insert and invalidate cost O(1) however large the TLB. The
// table is allocated with the first insert: a node that never
// translates pays only for the struct.
type TLB struct {
	cap   int
	slots []tlbSlot
	shift uint8 // 32 - log2(len(slots)): the hash keeps the top bits
	// head is the most and tail the least recently used slot, -1 when
	// the TLB is empty.
	head, tail int32
	n          int // valid entries
	// Hits and Misses count lookups (misses that hit the page table
	// pay the refill cost; misses that miss it fault to the kernel).
	Hits, Misses uint64
	// Shootdowns counts explicit invalidations and flushes.
	Shootdowns uint64
}

type tlbSlot struct {
	vp         memory.VPage
	prev, next int32
	valid      bool
	g          memory.GPage
}

// NewTLB builds a TLB with the given capacity (entries).
func NewTLB(entries int) *TLB {
	if entries < 1 {
		entries = 1
	}
	return &TLB{cap: entries, head: -1, tail: -1}
}

// Lookup returns the cached mapping for vp.
func (t *TLB) Lookup(vp memory.VPage) (memory.GPage, bool) {
	if i := t.find(vp); i >= 0 {
		t.touch(i)
		t.Hits++
		return t.slots[i].g, true
	}
	t.Misses++
	return memory.NilGPage, false
}

// Insert caches a mapping, updating an existing entry for the page in
// place (a remap must take effect immediately) or evicting the least
// recently used entry.
func (t *TLB) Insert(vp memory.VPage, g memory.GPage) {
	if i := t.find(vp); i >= 0 {
		t.slots[i].g = g
		t.touch(i)
		return
	}
	if t.slots == nil {
		bits := uint8(1)
		for 1<<bits < 2*t.cap {
			bits++
		}
		t.slots = make([]tlbSlot, 1<<bits)
		t.shift = 32 - bits
	}
	if t.n == t.cap {
		t.remove(t.tail)
	}
	i := t.home(vp)
	for t.slots[i].valid {
		i = (i + 1) & int32(len(t.slots)-1)
	}
	t.slots[i] = tlbSlot{vp: vp, valid: true, g: g}
	t.pushFront(i)
	t.n++
}

// Invalidate drops the entry for vp, if cached.
func (t *TLB) Invalidate(vp memory.VPage) {
	if i := t.find(vp); i >= 0 {
		t.remove(i)
		t.Shootdowns++
	}
}

// Flush drops every entry (the whole-TLB shootdown of §2.4).
func (t *TLB) Flush() {
	clear(t.slots)
	t.head, t.tail, t.n = -1, -1, 0
	t.Shootdowns++
}

// Len returns the number of valid entries.
func (t *TLB) Len() int { return t.n }

// home is vp's first probe slot (Fibonacci hashing).
func (t *TLB) home(vp memory.VPage) int32 {
	return int32(uint32(vp) * 0x9E3779B9 >> t.shift)
}

// find returns vp's slot, or -1.
func (t *TLB) find(vp memory.VPage) int32 {
	if t.n == 0 {
		return -1
	}
	mask := int32(len(t.slots) - 1)
	for i := t.home(vp); t.slots[i].valid; i = (i + 1) & mask {
		if t.slots[i].vp == vp {
			return i
		}
	}
	return -1
}

// remove empties slot i, then shifts later members of its probe run
// back into the hole, so every lookup still reaches its entry without
// tombstones; a moved entry's list neighbours are re-pointed.
func (t *TLB) remove(i int32) {
	t.unlink(i)
	t.n--
	mask := int32(len(t.slots) - 1)
	for j := i; ; {
		t.slots[i].valid = false
		for {
			j = (j + 1) & mask
			s := &t.slots[j]
			if !s.valid {
				return
			}
			// The entry at j may fill the hole at i unless its home
			// lies cyclically in (i, j].
			if k := t.home(s.vp); (j-k)&mask >= (j-i)&mask {
				t.slots[i] = *s
				t.relink(i)
				i = j
				break
			}
		}
	}
}

// touch makes slot i the most recently used.
func (t *TLB) touch(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

func (t *TLB) unlink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
}

// relink points slot i's list neighbours at it after a move.
func (t *TLB) relink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = i
	} else {
		t.head = i
	}
	if s.next >= 0 {
		t.slots[s.next].prev = i
	} else {
		t.tail = i
	}
}

func (t *TLB) pushFront(i int32) {
	s := &t.slots[i]
	s.prev, s.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

package mmu

import "plus/internal/memory"

// The reference model for Table: the implementation it replaced, kept
// verbatim apart from names and its unread hit, miss, shootdown and
// flush counters. modelTable is a Go map of mappings with a
// separate indexed TLB in front of it (itself pinned against a
// linear-scan LRU when it was the production TLB), and the counters
// and in-flight marks are the kernel's per-node maps they were.

type modelTable struct {
	tlb         modelTLB
	entries     map[memory.VPage]memory.GPage
	refs        map[memory.VPage]uint64
	replicating map[memory.VPage]bool
}

func newModelTable(tlbEntries int) *modelTable {
	return &modelTable{
		tlb:         *newModelTLB(tlbEntries),
		entries:     make(map[memory.VPage]memory.GPage),
		refs:        make(map[memory.VPage]uint64),
		replicating: make(map[memory.VPage]bool),
	}
}

func (t *modelTable) Translate(p memory.VPage) (g memory.GPage, tlbHit, ok bool) {
	if g, hit := t.tlb.Lookup(p); hit {
		return g, true, true
	}
	g, ok = t.entries[p]
	if ok {
		t.tlb.Insert(p, g)
	}
	return g, false, ok
}

func (t *modelTable) Lookup(p memory.VPage) (memory.GPage, bool) {
	g, ok := t.entries[p]
	return g, ok
}

func (t *modelTable) Install(p memory.VPage, g memory.GPage) {
	t.entries[p] = g
	t.tlb.Insert(p, g)
}

func (t *modelTable) Invalidate(p memory.VPage) {
	delete(t.entries, p)
	t.tlb.Invalidate(p)
}

func (t *modelTable) Flush() {
	t.entries = make(map[memory.VPage]memory.GPage)
	t.tlb.Flush()
}

func (t *modelTable) Len() int { return len(t.entries) }

// CountRef, StartReplication and EndReplication are the kernel's
// NoteRemoteRef, trigger and completion steps on its per-node maps.
func (t *modelTable) CountRef(p memory.VPage) (uint64, bool) {
	t.refs[p]++
	return t.refs[p], t.replicating[p]
}

func (t *modelTable) StartReplication(p memory.VPage) { t.replicating[p] = true }

func (t *modelTable) EndReplication(p memory.VPage) {
	t.replicating[p] = false
	t.refs[p] = 0
}

type modelTLB struct {
	cap   int
	slots []modelSlot
	shift uint8 // 32 - log2(len(slots)): the hash keeps the top bits
	// head is the most and tail the least recently used slot, -1 when
	// the TLB is empty.
	head, tail int32
	n          int // valid entries
}

type modelSlot struct {
	vp         memory.VPage
	prev, next int32
	valid      bool
	g          memory.GPage
}

// newModelTLB builds a modelTLB with the given capacity (entries).
func newModelTLB(entries int) *modelTLB {
	if entries < 1 {
		entries = 1
	}
	return &modelTLB{cap: entries, head: -1, tail: -1}
}

// Lookup returns the cached mapping for vp.
func (t *modelTLB) Lookup(vp memory.VPage) (memory.GPage, bool) {
	if i := t.find(vp); i >= 0 {
		t.touch(i)
		return t.slots[i].g, true
	}
	return memory.NilGPage, false
}

// Insert caches a mapping, updating an existing entry for the page in
// place (a remap must take effect immediately) or evicting the least
// recently used entry.
func (t *modelTLB) Insert(vp memory.VPage, g memory.GPage) {
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
		t.slots = make([]modelSlot, 1<<bits)
		t.shift = 32 - bits
	}
	if t.n == t.cap {
		t.remove(t.tail)
	}
	i := t.home(vp)
	for t.slots[i].valid {
		i = (i + 1) & int32(len(t.slots)-1)
	}
	t.slots[i] = modelSlot{vp: vp, valid: true, g: g}
	t.pushFront(i)
	t.n++
}

// Invalidate drops the entry for vp, if cached.
func (t *modelTLB) Invalidate(vp memory.VPage) {
	if i := t.find(vp); i >= 0 {
		t.remove(i)
	}
}

// Flush drops every entry (the whole-TLB shootdown of §2.4).
func (t *modelTLB) Flush() {
	clear(t.slots)
	t.head, t.tail, t.n = -1, -1, 0
}

// Len returns the number of valid entries.
func (t *modelTLB) Len() int { return t.n }

// home is vp's first probe slot (Fibonacci hashing).
func (t *modelTLB) home(vp memory.VPage) int32 {
	return int32(uint32(vp) * 0x9E3779B9 >> t.shift)
}

// find returns vp's slot, or -1.
func (t *modelTLB) find(vp memory.VPage) int32 {
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
func (t *modelTLB) remove(i int32) {
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
func (t *modelTLB) touch(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

func (t *modelTLB) unlink(i int32) {
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
func (t *modelTLB) relink(i int32) {
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

func (t *modelTLB) pushFront(i int32) {
	s := &t.slots[i]
	s.prev, s.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

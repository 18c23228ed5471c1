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
	"plus/internal/memory"
)

// Table is one node's page table: virtual page → global physical page
// (the node's chosen copy, normally the closest one). A hardware TLB
// caches its entries; Translate is the processor-facing lookup that
// reports which level hit.
type Table struct {
	// tlb is held by value: a translation reads the TLB's fields from
	// the table's own allocation instead of chasing a pointer.
	tlb     TLB
	entries map[memory.VPage]memory.GPage
	// Faults counts lazy fills (misses resolved through the kernel).
	Faults uint64
	// Flushes counts whole-table invalidations (TLB shootdowns on copy
	// deletion).
	Flushes uint64
	// OnInstall, when non-nil, observes every mapping install — a lazy
	// fault fill from the processor or a kernel remap (replication
	// switching a node to its local copy). core wires it to emit
	// EvAccMap when the data-access event layer is on, so a trace
	// records which physical copy each node's virtual page resolved to.
	OnInstall func(p memory.VPage, g memory.GPage)
}

// New returns an empty page table with a TLB of the given capacity.
func New() *Table {
	return NewSized(64)
}

// NewSized returns an empty page table with a TLB of tlbEntries.
func NewSized(tlbEntries int) *Table {
	return &Table{
		tlb:     *NewTLB(tlbEntries),
		entries: make(map[memory.VPage]memory.GPage),
	}
}

// TLB exposes the hardware translation cache.
func (t *Table) TLB() *TLB { return &t.tlb }

// Translate performs the hardware translation sequence: TLB first,
// then the page table (refilling the TLB on a table hit). tlbHit
// distinguishes a free translation from one paying the refill cost;
// ok=false means the mapping is absent and the kernel must resolve it.
func (t *Table) Translate(p memory.VPage) (g memory.GPage, tlbHit, ok bool) {
	if g, hit := t.tlb.Lookup(p); hit {
		return g, true, true
	}
	g, ok = t.entries[p]
	if ok {
		t.tlb.Insert(p, g)
	}
	return g, false, ok
}

// Lookup returns the mapping for page p, if present.
func (t *Table) Lookup(p memory.VPage) (memory.GPage, bool) {
	g, ok := t.entries[p]
	return g, ok
}

// Install fills (or replaces) the mapping for page p, updating the
// TLB so the new mapping takes effect immediately (e.g. after a
// replication switches a node to its local copy).
func (t *Table) Install(p memory.VPage, g memory.GPage) {
	t.entries[p] = g
	t.tlb.Insert(p, g)
	if t.OnInstall != nil {
		t.OnInstall(p, g)
	}
}

// Invalidate removes the mapping for page p (no-op if absent),
// shooting the TLB entry down with it.
func (t *Table) Invalidate(p memory.VPage) {
	delete(t.entries, p)
	t.tlb.Invalidate(p)
}

// Flush drops every mapping and the whole TLB, forcing lazy refills.
func (t *Table) Flush() {
	t.entries = make(map[memory.VPage]memory.GPage)
	t.tlb.Flush()
	t.Flushes++
}

// Len returns the number of live mappings.
func (t *Table) Len() int { return len(t.entries) }

package mmu

import (
	"testing"
	"unsafe"

	"plus/internal/memory"
	"plus/internal/mesh"
)

func TestLookupInstallInvalidate(t *testing.T) {
	tbl := New()
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("empty table had a mapping")
	}
	g := memory.GPage{Node: 2, Page: 7}
	tbl.Install(5, g)
	got, ok := tbl.Lookup(5)
	if !ok || got != g {
		t.Fatalf("lookup = %v %v", got, ok)
	}
	if n := mapped(tbl); n != 1 {
		t.Fatalf("%d mappings, want 1", n)
	}
	// Replace.
	g2 := memory.GPage{Node: 3, Page: 1}
	tbl.Install(5, g2)
	if got, _ := tbl.Lookup(5); got != g2 {
		t.Fatal("install did not replace")
	}
	tbl.Invalidate(5)
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("invalidate left the mapping")
	}
	tbl.Invalidate(5) // idempotent
}

func TestFlush(t *testing.T) {
	tbl := New()
	for i := memory.VPage(0); i < 10; i++ {
		tbl.Install(i, memory.GPage{Node: 0, Page: memory.PPage(i)})
	}
	tbl.Flush()
	if n := mapped(tbl); n != 0 {
		t.Fatalf("%d mappings after flush", n)
	}
	for i := memory.VPage(0); i < 10; i++ {
		if _, tlbHit, ok := tbl.Translate(i); tlbHit || ok {
			t.Fatalf("page %d translates after flush (TLB hit %v)", i, tlbHit)
		}
	}
}

// mapped counts the table's live mappings.
func mapped(t *Table) int {
	n := 0
	for i := range t.slots {
		if t.slots[i].flags&fMapped != 0 {
			n++
		}
	}
	return n
}

func TestCountersSurviveInvalidateFlushAndRemap(t *testing.T) {
	tbl := New()
	g := memory.GPage{Node: 2, Page: 7}
	tbl.Install(5, g)
	for i := 0; i < 3; i++ {
		tbl.CountRef(5)
	}
	tbl.StartReplication(5)
	tbl.Invalidate(5)
	if n, repl := tbl.CountRef(5); n != 4 || !repl {
		t.Fatalf("after invalidate: count %d replicating %v, want 4 true", n, repl)
	}
	tbl.Install(5, memory.GPage{Node: 3, Page: 1}) // remap
	if n, repl := tbl.CountRef(5); n != 5 || !repl {
		t.Fatalf("after remap: count %d replicating %v, want 5 true", n, repl)
	}
	tbl.Flush()
	if n, repl := tbl.CountRef(5); n != 6 || !repl {
		t.Fatalf("after flush: count %d replicating %v, want 6 true", n, repl)
	}
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("flush left the mapping")
	}
	tbl.EndReplication(5)
	if n, repl := tbl.CountRef(5); n != 1 || repl {
		t.Fatalf("after end: count %d replicating %v, want 1 false", n, repl)
	}
	// A counter on a page never mapped here is an entry too, and
	// making it maps nothing.
	tbl.CountRef(9)
	if tbl.RefCount(9) != 1 || mapped(tbl) != 0 {
		t.Fatalf("unmapped counter: refs %d, %d mappings", tbl.RefCount(9), mapped(tbl))
	}
}

// TestSteadyStateAllocs pins the per-reference paths at zero heap
// allocations once the table holds its pages: a TLB hit, a page-table
// hit with refill, and a counter bump.
func TestSteadyStateAllocs(t *testing.T) {
	const pages = 128 // twice the TLB: cycling through them always refills
	tbl := New()
	for p := memory.VPage(0); p < pages; p++ {
		tbl.Install(p, memory.GPage{Node: 1, Page: memory.PPage(p)})
		tbl.CountRef(p)
	}
	var p memory.VPage
	refillHits := 0
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"hit", func() { tbl.Translate(pages - 1) }},
		{"refill", func() {
			p = (p + 1) % pages
			if _, tlbHit, _ := tbl.Translate(p); tlbHit {
				refillHits++
			}
		}},
		{"count", func() { p = (p + 1) % pages; tbl.CountRef(p) }},
	} {
		if n := testing.AllocsPerRun(1000, c.f); n != 0 {
			t.Errorf("%s: %v allocs per run", c.name, n)
		}
	}
	if refillHits != 0 {
		t.Errorf("refill: %d TLB hits, want none", refillHits)
	}
}

// TestReserveMatchesLazyGrowth pins Reserve on tables already holding
// a few pages: after Reserve(n), n fresh installs allocate nothing, and
// the table ends at exactly the capacity the same installs reach
// growing one doubling at a time, so Reserve never over-reserves.
func TestReserveMatchesLazyGrowth(t *testing.T) {
	g := memory.GPage{Node: 1, Page: 2}
	for _, pre := range []int{0, 5, 6, 100} {
		for _, n := range []int{0, 1, 6, 7, 513, 1000} {
			filled := func() *Table {
				tbl := New()
				for p := 0; p < pre; p++ {
					tbl.Install(memory.VPage(p), g)
				}
				return tbl
			}
			install := func(tbl *Table) {
				for i := 0; i < n; i++ {
					tbl.Install(memory.VPage(pre+i), g)
				}
			}
			lazy := filled()
			install(lazy)
			// AllocsPerRun calls its function once to warm up and once
			// measured; each call gets its own reserved table.
			reserved := []*Table{filled(), filled()}
			for _, tbl := range reserved {
				tbl.Reserve(n)
			}
			k := 0
			allocs := testing.AllocsPerRun(1, func() {
				install(reserved[k])
				k++
			})
			if allocs != 0 {
				t.Errorf("%d pages, Reserve(%d): the installs allocated %v times", pre, n, allocs)
			}
			if got, want := len(reserved[1].slots), len(lazy.slots); got != want {
				t.Errorf("%d pages, Reserve(%d): %d slots, lazy growth reaches %d", pre, n, got, want)
			}
			if got := mapped(reserved[1]); got != pre+n {
				t.Errorf("%d pages, Reserve(%d): %d mappings, want %d", pre, n, got, pre+n)
			}
		}
	}
}

// An entry is 16 bytes: four share a 64-byte cache line, and the 256
// tables of a 16x16 run prefaulted with 513 pages each keep 4 MB.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
}

// An entry narrows its mapping's node to 16 bits; every node of the
// largest mesh must fit.
func TestEntryNodeHoldsMaxNodes(t *testing.T) {
	var e entry
	e.node = ^e.node
	if int(e.node) < mesh.MaxNodes-1 {
		t.Fatalf("entry node field tops out at %d, below mesh.MaxNodes-1 = %d", e.node, mesh.MaxNodes-1)
	}
	g := memory.GPage{Node: mesh.MaxNodes - 1, Page: 3}
	tbl := New()
	tbl.Install(1, g)
	if got, _, _ := tbl.Translate(1); got != g {
		t.Fatalf("translate = %v, want %v", got, g)
	}
}

// NewSized takes a TLB of up to MaxTLB ways and panics above it.
func TestNewSizedTLBLimit(t *testing.T) {
	tbl := NewSized(MaxTLB)
	for p := memory.VPage(0); p <= MaxTLB; p++ {
		tbl.Install(p, memory.GPage{Node: 1, Page: memory.PPage(p)})
	}
	if _, hit, _ := tbl.Translate(0); hit {
		t.Fatal("page 0 still resident after MaxTLB newer installs")
	}
	if _, hit, _ := tbl.Translate(MaxTLB); !hit {
		t.Fatal("newest page not resident")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewSized(%d) did not panic", MaxTLB+1)
		}
	}()
	NewSized(MaxTLB + 1)
}

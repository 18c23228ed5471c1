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
	for _, s := range t.slots {
		if s.leaf != nil {
			for _, e := range s.leaf {
				if e.flags&fMapped != 0 {
					n++
				}
			}
		}
	}
	return n
}

// leaves counts the table's groups, checking that the occupied slots
// match its count.
func leaves(tb *testing.T, t *Table) int {
	tb.Helper()
	n := 0
	for _, s := range t.slots {
		if s.leaf != nil {
			n++
		}
	}
	if n != t.used {
		tb.Fatalf("%d occupied slots, table counts %d", n, t.used)
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
// a few pages, at a range that starts mid-group: after Reserve of a
// range, installing its pages allocates nothing, the table holds one
// leaf per group the range and the earlier pages touch, exactly as many
// as the same installs reach growing lazily, in no more slots, and
// Reserve itself maps nothing. On a fresh table Reserve makes three
// allocations: the TLB's ways, the slots and one block of leaves
// (unchecked under the race detector, see raceEnabled).
func TestReserveMatchesLazyGrowth(t *testing.T) {
	const base = 1000003 // not a multiple of groupPages
	g := memory.GPage{Node: 1, Page: 2}
	for _, pre := range []int{0, 5, 6, 100} {
		for _, n := range []int{0, 1, 6, 7, 513, 1000} {
			filled := func() *Table {
				tbl := New()
				for p := 0; p < pre; p++ {
					tbl.Install(memory.VPage(base+p), g)
				}
				return tbl
			}
			first := memory.VPage(base + pre)
			install := func(tbl *Table) {
				for i := 0; i < n; i++ {
					tbl.Install(first+memory.VPage(i), g)
				}
			}
			lazy := filled()
			install(lazy)
			// AllocsPerRun calls its function once to warm up and once
			// measured; each call gets its own table.
			reserved := []*Table{filled(), filled()}
			k := 0
			reserveAllocs := testing.AllocsPerRun(1, func() {
				reserved[k].Reserve(first, n)
				k++
			})
			if want := 3.0; pre == 0 && n > 0 && !raceEnabled && reserveAllocs != want {
				t.Errorf("Reserve(%d) on a fresh table allocated %v times, want %v", n, reserveAllocs, want)
			}
			if got := mapped(reserved[1]); got != pre {
				t.Errorf("%d pages, Reserve(%d): %d mappings before any install", pre, n, got)
			}
			k = 0
			allocs := testing.AllocsPerRun(1, func() {
				install(reserved[k])
				k++
			})
			if allocs != 0 {
				t.Errorf("%d pages, Reserve(%d): the installs allocated %v times", pre, n, allocs)
			}
			groups := 0
			if pre+n > 0 {
				groups = (base+pre+n-1)/groupPages - base/groupPages + 1
			}
			if got, lz := leaves(t, reserved[1]), leaves(t, lazy); got != groups || lz != groups {
				t.Errorf("%d pages, Reserve(%d): %d leaves, lazy growth %d, the pages touch %d groups", pre, n, got, lz, groups)
			}
			if got, lz := len(reserved[1].slots), len(lazy.slots); got > lz {
				t.Errorf("%d pages, Reserve(%d): %d slots, lazy growth reaches %d", pre, n, got, lz)
			}
			if got := mapped(reserved[1]); got != pre+n {
				t.Errorf("%d pages, Reserve(%d): %d mappings, want %d", pre, n, got, pre+n)
			}
		}
	}
}

// An entry is 12 bytes: its virtual page is implied by its group's
// slot and its index in the leaf, so a leaf of eight is 96 bytes.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 12 {
		t.Fatalf("entry is %d bytes, want 12", n)
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

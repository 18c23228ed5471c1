package mmu

import (
	"testing"

	"plus/internal/memory"
)

// BenchmarkTLBLookup times one translation through a page table
// holding twice its 64-entry TLB: "hit" cycles through the pages the
// TLB holds (each hit also moves its entry to the front of the recency
// list), "refill" cycles through all the mapped pages in order, so
// every translation misses the TLB, hits the table and evicts the
// least recently used entry, "miss" asks for unmapped pages, and
// "count" bumps the remote-reference counters of the mapped pages.
func BenchmarkTLBLookup(b *testing.B) {
	const entries, pages = 64, 128
	fill := func() *Table {
		t := New()
		for i := 0; i < pages; i++ {
			t.Install(memory.VPage(i*7), memory.GPage{Node: 1, Page: memory.PPage(i)})
		}
		return t
	}
	b.Run("hit", func(b *testing.B) {
		t := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, _ := t.Translate(memory.VPage((pages - entries + i%entries) * 7)); !hit {
				b.Fatal("TLB miss on a resident page")
			}
		}
	})
	b.Run("refill", func(b *testing.B) {
		t := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, ok := t.Translate(memory.VPage(i % pages * 7)); hit || !ok {
				b.Fatal("refill cycle hit the TLB or missed the table")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		t := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := t.Translate(memory.VPage(i%pages*7 + 1)); ok {
				b.Fatal("hit on an unmapped page")
			}
		}
	})
	b.Run("count", func(b *testing.B) {
		t := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.CountRef(memory.VPage(i % pages * 7))
		}
	})
}

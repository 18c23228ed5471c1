package mmu

import (
	"testing"

	"plus/internal/memory"
)

// BenchmarkTLBLookup times one translation lookup in a full 64-entry
// TLB: "hit" cycles through the cached pages (each hit also moves its
// entry to the front of the recency list), "miss" asks for pages that
// are not cached.
func BenchmarkTLBLookup(b *testing.B) {
	const entries = 64
	fill := func() *TLB {
		t := NewTLB(entries)
		for i := 0; i < entries; i++ {
			t.Insert(memory.VPage(i*7), memory.GPage{Node: 1, Page: memory.PPage(i)})
		}
		return t
	}
	b.Run("hit", func(b *testing.B) {
		t := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Lookup(memory.VPage(i % entries * 7)); !ok {
				b.Fatal("miss on a cached page")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		t := fill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Lookup(memory.VPage(i%entries*7 + 1)); ok {
				b.Fatal("hit on an uncached page")
			}
		}
	})
}

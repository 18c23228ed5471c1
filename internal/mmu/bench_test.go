package mmu

import (
	"math/rand"
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
// These four stay in the host's caches. "zipf" does not: it builds the
// record store's shape, 256 tables each prefaulted with 513 pages (512
// record pages and a counter page), and translates in a fixed stream
// of uniformly chosen tables and Zipf (s=1.2) chosen record pages, so
// most translations hit the TLB of a table whose entries are out of
// cache and the rest refill it.
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
	b.Run("zipf", func(b *testing.B) {
		const nodes, records, counter = 256, 512, 4096
		tables := make([]*Table, nodes)
		for n := range tables {
			t := New()
			t.Reserve(0, records)
			for p := 0; p < records; p++ {
				t.Install(memory.VPage(p), memory.GPage{Node: 1, Page: memory.PPage(p)})
			}
			t.Reserve(counter, 1)
			t.Install(counter, memory.GPage{Node: 1, Page: records})
			tables[n] = t
		}
		const stream = 1 << 16
		rng := rand.New(rand.NewSource(42))
		zipf := rand.NewZipf(rng, 1.2, 1, records-1)
		who := make([]uint8, stream)
		page := make([]memory.VPage, stream)
		for i := range who {
			who[i], page[i] = uint8(rng.Intn(nodes)), memory.VPage(zipf.Uint64())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % stream
			if _, _, ok := tables[who[k]].Translate(page[k]); !ok {
				b.Fatal("prefaulted page unmapped")
			}
		}
	})
}

package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"plus/internal/memory"
	"plus/internal/node"
)

func TestTLBHitMiss(t *testing.T) {
	tbl := NewSized(4)
	if _, tlbHit, ok := tbl.Translate(5); tlbHit || ok {
		t.Fatal("empty table hit")
	}
	g := memory.GPage{Node: 1, Page: 2}
	tbl.Install(5, g)
	got, tlbHit, _ := tbl.Translate(5)
	if !tlbHit || got != g {
		t.Fatalf("translate = %v %v", got, tlbHit)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tbl := NewSized(2)
	tbl.Install(1, memory.GPage{Node: 0, Page: 1})
	tbl.Install(2, memory.GPage{Node: 0, Page: 2})
	tbl.Translate(1) // page 1 recently used; 2 is now LRU
	tbl.Install(3, memory.GPage{Node: 0, Page: 3})
	if _, tlbHit, ok := tbl.Translate(2); tlbHit || !ok {
		t.Fatal("LRU entry survived eviction (or lost its mapping)")
	}
	// The refill of 2 evicted 1, the LRU after 3's install.
	if _, tlbHit, _ := tbl.Translate(3); !tlbHit {
		t.Fatal("MRU entry evicted")
	}
}

func TestTLBInsertReplacesInPlace(t *testing.T) {
	// A remap of the same page must not leave a stale duplicate (the
	// competitive-replication regression).
	tbl := NewSized(4)
	old := memory.GPage{Node: 3, Page: 0}
	nw := memory.GPage{Node: 0, Page: 9}
	tbl.Install(7, old)
	tbl.Install(7, nw)
	got, tlbHit, _ := tbl.Translate(7)
	if !tlbHit || got != nw {
		t.Fatalf("translate after remap = %v", got)
	}
	if n := resident(t, tbl); n != 1 || mapped(tbl) != 1 {
		t.Fatalf("duplicate entries: resident = %d, mappings = %d", n, mapped(tbl))
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tbl := NewSized(4)
	tbl.Install(1, memory.GPage{Node: 0, Page: 1})
	tbl.Install(2, memory.GPage{Node: 0, Page: 2})
	tbl.Invalidate(1)
	if _, tlbHit, ok := tbl.Translate(1); tlbHit || ok {
		t.Fatal("invalidated entry hit")
	}
	tbl.Invalidate(99) // absent: no-op
	tbl.Flush()
	if n := resident(t, tbl); n != 0 {
		t.Fatalf("flush left %d entries", n)
	}
	if _, tlbHit, ok := tbl.Translate(2); tlbHit || ok {
		t.Fatal("flushed entry hit")
	}
}

func TestTableTranslateLevels(t *testing.T) {
	tbl := NewSized(2)
	g := memory.GPage{Node: 1, Page: 4}
	// Absent everywhere.
	if _, tlbHit, ok := tbl.Translate(9); tlbHit || ok {
		t.Fatal("translate of unmapped page succeeded")
	}
	tbl.Install(9, g)
	// Install primes the TLB: first translate is a TLB hit.
	if _, tlbHit, ok := tbl.Translate(9); !tlbHit || !ok {
		t.Fatal("install did not prime the TLB")
	}
	// Evict via capacity, then translate: table hit, TLB refill.
	tbl.Install(10, g)
	tbl.Install(11, g)
	got, tlbHit, ok := tbl.Translate(9)
	if tlbHit || !ok || got != g {
		t.Fatalf("post-eviction translate = %v %v %v", got, tlbHit, ok)
	}
	// And now it is cached again.
	if _, tlbHit, _ := tbl.Translate(9); !tlbHit {
		t.Fatal("refill did not cache")
	}
}

func TestTLBConsistencyProperty(t *testing.T) {
	// Property: after any install sequence, every translation returns
	// the most recent mapping installed for that page.
	f := func(ops []uint8) bool {
		tbl := NewSized(4)
		last := make(map[memory.VPage]memory.GPage)
		for i, op := range ops {
			vp := memory.VPage(op % 8)
			g := memory.GPage{Node: 0, Page: memory.PPage(i)}
			tbl.Install(vp, g)
			last[vp] = g
		}
		for vp, want := range last {
			if got, _, ok := tbl.Translate(vp); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTableMatchesReferenceModel drives the merged table and the
// map-plus-TLB reference model (model_test.go) through the same seeded
// stream of installs (new pages and remaps), translations (TLB hits,
// refills and misses), invalidations, flushes, reservations and counter
// bumps, reads and resets, comparing every Translate result (TLB hit
// flag included) and every counter, and after every operation the
// Lookup of the page it touched, the mapped and resident counts and
// the consistency of the TLB's ways. Capacity MaxTLB fills every way
// index an entry can name.
func TestTableMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64, MaxTLB} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// A page pool about twice the capacity, mixing small
			// dense page numbers with scattered large ones so probe
			// runs wrap and collide.
			pool := make([]memory.VPage, 2*capacity+3)
			for i := range pool {
				if i%2 == 0 {
					pool[i] = memory.VPage(i)
				} else {
					pool[i] = memory.VPage(rng.Uint32())
				}
			}
			got, want := NewSized(capacity), newModelTable(capacity)
			for op := 0; op < 20000; op++ {
				vp := pool[rng.Intn(len(pool))]
				var what string
				switch r := rng.Intn(100); {
				case r < 25:
					what = "install"
					g := memory.GPage{Node: node.ID(op % 7), Page: memory.PPage(op)}
					got.Install(vp, g)
					want.Install(vp, g)
				case r < 65:
					what = "translate"
					g1, hit1, ok1 := got.Translate(vp)
					g2, hit2, ok2 := want.Translate(vp)
					if g1 != g2 || hit1 != hit2 || ok1 != ok2 {
						t.Fatalf("cap %d seed %d op %d: Translate(%d) = %v %v %v, model %v %v %v",
							capacity, seed, op, vp, g1, hit1, ok1, g2, hit2, ok2)
					}
				case r < 75:
					what = "lookup"
					g1, ok1 := got.Lookup(vp)
					g2, ok2 := want.Lookup(vp)
					if g1 != g2 || ok1 != ok2 {
						t.Fatalf("cap %d seed %d op %d: Lookup(%d) = %v %v, model %v %v",
							capacity, seed, op, vp, g1, ok1, g2, ok2)
					}
				case r < 89:
					what = "count"
					n1, r1 := got.CountRef(vp)
					n2, r2 := want.CountRef(vp)
					if n1 != n2 || r1 != r2 {
						t.Fatalf("cap %d seed %d op %d: CountRef(%d) = %d %v, model %d %v",
							capacity, seed, op, vp, n1, r1, n2, r2)
					}
				case r < 92:
					what = "start"
					got.StartReplication(vp)
					want.StartReplication(vp)
				case r < 95:
					what = "end"
					got.EndReplication(vp)
					want.EndReplication(vp)
				case r < 98:
					what = "invalidate"
					got.Invalidate(vp)
					want.Invalidate(vp)
				case r < 99:
					// Reserving groups ahead of installs changes no
					// result: the model has nothing to do.
					what = "reserve"
					got.Reserve(vp, rng.Intn(4*groupPages))
				default:
					what = "flush"
					got.Flush()
					want.Flush()
				}
				g1, ok1 := got.Lookup(vp)
				if g2, ok2 := want.Lookup(vp); g1 != g2 || ok1 != ok2 {
					t.Fatalf("cap %d seed %d op %d (%s %d): Lookup = %v %v, model %v %v",
						capacity, seed, op, what, vp, g1, ok1, g2, ok2)
				}
				if n := resident(t, got); n != want.tlb.Len() || mapped(got) != want.Len() {
					t.Fatalf("cap %d seed %d op %d (%s %d): resident/mapped = %d/%d, model %d/%d",
						capacity, seed, op, what, vp, n, mapped(got), want.tlb.Len(), want.Len())
				}
				if c1, c2 := got.RefCount(vp), want.refs[vp]; c1 != c2 {
					t.Fatalf("cap %d seed %d op %d (%s %d): RefCount = %d, model %d",
						capacity, seed, op, what, vp, c1, c2)
				}
			}
			// Every counter, at the end, through the profile walk.
			seen := 0
			got.EachRef(func(vp memory.VPage, c uint64) {
				seen++
				if want.refs[vp] != c {
					t.Fatalf("cap %d seed %d: EachRef(%d) = %d, model %d", capacity, seed, vp, c, want.refs[vp])
				}
			})
			for _, c := range want.refs {
				if c != 0 {
					seen--
				}
			}
			if seen != 0 {
				t.Fatalf("cap %d seed %d: EachRef visited %d pages more than the model counts", capacity, seed, seen)
			}
		}
	}
}

// TestTableGrowKeepsLRUOrder fills a TLB, sets its recency order, then
// grows the table underneath it (counter bumps on fresh pages make
// groups without touching the TLB) and checks that evictions still
// follow the old order and that each resident way still names its
// page.
func TestTableGrowKeepsLRUOrder(t *testing.T) {
	const capacity = 4
	tbl := NewSized(capacity)
	for p := memory.VPage(0); p < capacity; p++ {
		tbl.Install(p, memory.GPage{Node: 1, Page: memory.PPage(p)})
	}
	// Recency, most recent first: 1, 3, 0, 2.
	for _, p := range []memory.VPage{2, 0, 3, 1} {
		if _, hit, _ := tbl.Translate(p); !hit {
			t.Fatalf("page %d not resident", p)
		}
	}
	before := len(tbl.slots)
	for p := memory.VPage(100); p < 200; p++ {
		tbl.CountRef(p)
	}
	if len(tbl.slots) <= before {
		t.Fatalf("table did not grow: %d slots", len(tbl.slots))
	}
	// Each new install evicts the least recently used: 2, 0, 3, 1.
	victims := []memory.VPage{2, 0, 3, 1}
	for i := range victims {
		tbl.Install(memory.VPage(1000+i), memory.GPage{Node: 2, Page: memory.PPage(i)})
		for j, p := range victims {
			e := tbl.find(p)
			if resident := e.way != 0; resident != (j > i) {
				t.Fatalf("after install %d: page %d resident = %v", i, p, resident)
			}
			if e.way != 0 && tbl.ways[e.way].vp != p {
				t.Fatalf("after install %d: page %d's way names page %d", i, p, tbl.ways[e.way].vp)
			}
		}
	}
}

// resident checks the TLB's way state and returns its resident count:
// the LRU ring from ways[0] visits exactly ways 1..t.resident, each
// way's page has a mapped entry naming that way, and no other entry
// names a way.
func resident(tb *testing.T, t *Table) int {
	tb.Helper()
	if t.resident > t.tlbCap {
		tb.Fatalf("%d resident ways, capacity %d", t.resident, t.tlbCap)
	}
	if t.ways == nil {
		if t.resident != 0 {
			tb.Fatalf("%d resident ways, none allocated", t.resident)
		}
		return 0
	}
	seen := make([]bool, len(t.ways))
	n, last := 0, int16(0)
	for w := t.ways[0].next; w != 0; last, w = w, t.ways[w].next {
		if w < 0 || int(w) > t.resident || seen[w] {
			tb.Fatalf("LRU ring reaches way %d (%d resident)", w, t.resident)
		}
		seen[w] = true
		n++
		if t.ways[w].prev != last {
			tb.Fatalf("way %d: prev %d, ring came from %d", w, t.ways[w].prev, last)
		}
		e := t.find(t.ways[w].vp)
		if e == nil || int16(e.way) != w || e.flags&fMapped == 0 {
			tb.Fatalf("way %d caches page %d, whose entry %+v does not name it", w, t.ways[w].vp, e)
		}
	}
	if n != t.resident || t.ways[0].prev != last {
		tb.Fatalf("LRU ring holds %d ways ending at %d; %d resident, tail %d", n, last, t.resident, t.ways[0].prev)
	}
	named := 0
	for _, s := range t.slots {
		if s.leaf != nil {
			for _, e := range s.leaf {
				if e.way != 0 {
					named++
				}
			}
		}
	}
	if named != n {
		tb.Fatalf("%d entries name a way, %d ways resident", named, n)
	}
	return n
}

package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"plus/internal/memory"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if _, hit := tlb.Lookup(5); hit {
		t.Fatal("empty TLB hit")
	}
	g := memory.GPage{Node: 1, Page: 2}
	tlb.Insert(5, g)
	got, hit := tlb.Lookup(5)
	if !hit || got != g {
		t.Fatalf("lookup = %v %v", got, hit)
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, memory.GPage{Node: 0, Page: 1})
	tlb.Insert(2, memory.GPage{Node: 0, Page: 2})
	tlb.Lookup(1) // page 1 recently used; 2 is now LRU
	tlb.Insert(3, memory.GPage{Node: 0, Page: 3})
	if _, hit := tlb.Lookup(2); hit {
		t.Fatal("LRU entry survived eviction")
	}
	if _, hit := tlb.Lookup(1); !hit {
		t.Fatal("MRU entry evicted")
	}
}

func TestTLBInsertReplacesInPlace(t *testing.T) {
	// A remap of the same page must not leave a stale duplicate (the
	// competitive-replication regression).
	tlb := NewTLB(4)
	old := memory.GPage{Node: 3, Page: 0}
	nw := memory.GPage{Node: 0, Page: 9}
	tlb.Insert(7, old)
	tlb.Insert(7, nw)
	got, hit := tlb.Lookup(7)
	if !hit || got != nw {
		t.Fatalf("lookup after remap = %v", got)
	}
	if tlb.Len() != 1 {
		t.Fatalf("duplicate entries: len = %d", tlb.Len())
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(1, memory.GPage{Node: 0, Page: 1})
	tlb.Insert(2, memory.GPage{Node: 0, Page: 2})
	tlb.Invalidate(1)
	if _, hit := tlb.Lookup(1); hit {
		t.Fatal("invalidated entry hit")
	}
	tlb.Invalidate(99) // absent: no-op
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatal("flush left entries")
	}
	if tlb.Shootdowns != 2 {
		t.Fatalf("shootdowns = %d", tlb.Shootdowns)
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
	// Property: after any insert sequence, every Lookup hit returns
	// the most recent mapping inserted for that page.
	f := func(ops []uint8) bool {
		tlb := NewTLB(4)
		last := make(map[memory.VPage]memory.GPage)
		for i, op := range ops {
			vp := memory.VPage(op % 8)
			g := memory.GPage{Node: 0, Page: memory.PPage(i)}
			tlb.Insert(vp, g)
			last[vp] = g
		}
		for vp, want := range last {
			if got, hit := tlb.Lookup(vp); hit && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refTLB is the original linear-scan TLB, kept as the oracle for the
// indexed one: every slot carries a last-use stamp, a hit restamps
// it, an insert reuses the page's own slot or the first invalid one,
// and a full TLB evicts the slot with the oldest stamp.
type refTLB struct {
	seq                      uint64
	slots                    []refEntry
	Hits, Misses, Shootdowns uint64
}

type refEntry struct {
	valid bool
	vp    memory.VPage
	g     memory.GPage
	used  uint64
}

func newRefTLB(entries int) *refTLB { return &refTLB{slots: make([]refEntry, entries)} }

func (t *refTLB) Lookup(vp memory.VPage) (memory.GPage, bool) {
	for i := range t.slots {
		e := &t.slots[i]
		if e.valid && e.vp == vp {
			t.seq++
			e.used = t.seq
			t.Hits++
			return e.g, true
		}
	}
	t.Misses++
	return memory.NilGPage, false
}

func (t *refTLB) Insert(vp memory.VPage, g memory.GPage) {
	t.seq++
	victim := -1
	for i := range t.slots {
		e := &t.slots[i]
		if e.valid && e.vp == vp {
			victim = i
			break
		}
		if victim < 0 && !e.valid {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := range t.slots {
			if t.slots[i].used < t.slots[victim].used {
				victim = i
			}
		}
	}
	t.slots[victim] = refEntry{valid: true, vp: vp, g: g, used: t.seq}
}

func (t *refTLB) Invalidate(vp memory.VPage) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].vp == vp {
			t.slots[i].valid = false
			t.Shootdowns++
			return
		}
	}
}

func (t *refTLB) Flush() {
	for i := range t.slots {
		t.slots[i].valid = false
	}
	t.Shootdowns++
}

func (t *refTLB) Len() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].valid {
			n++
		}
	}
	return n
}

// TestTLBMatchesLinearScanOracle drives the indexed TLB and the
// linear-scan oracle through the same seeded stream of inserts (new
// pages and remaps), lookups, invalidations and flushes, comparing
// every result and counter after every operation.
func TestTLBMatchesLinearScanOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64} {
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
			got, want := NewTLB(capacity), newRefTLB(capacity)
			for op := 0; op < 20000; op++ {
				vp := pool[rng.Intn(len(pool))]
				var what string
				switch r := rng.Intn(100); {
				case r < 40:
					what = "insert"
					g := memory.GPage{Node: 1, Page: memory.PPage(op)}
					got.Insert(vp, g)
					want.Insert(vp, g)
				case r < 90:
					what = "lookup"
					g1, ok1 := got.Lookup(vp)
					g2, ok2 := want.Lookup(vp)
					if g1 != g2 || ok1 != ok2 {
						t.Fatalf("cap %d seed %d op %d: Lookup(%d) = %v %v, oracle %v %v",
							capacity, seed, op, vp, g1, ok1, g2, ok2)
					}
				case r < 99:
					what = "invalidate"
					got.Invalidate(vp)
					want.Invalidate(vp)
				default:
					what = "flush"
					got.Flush()
					want.Flush()
				}
				if got.Hits != want.Hits || got.Misses != want.Misses ||
					got.Shootdowns != want.Shootdowns || got.Len() != want.Len() {
					t.Fatalf("cap %d seed %d op %d (%s %d): hits/misses/shootdowns/len = %d/%d/%d/%d, oracle %d/%d/%d/%d",
						capacity, seed, op, what, vp, got.Hits, got.Misses, got.Shootdowns, got.Len(),
						want.Hits, want.Misses, want.Shootdowns, want.Len())
				}
			}
		}
	}
}

package coherence

import (
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// invRig builds a rig with every CM in write-invalidate mode.
func invRig(t *testing.T, w, h int) *rig {
	r := newRig(t, w, h)
	for _, cm := range r.cms {
		cm.SetInvalidateMode(true)
	}
	return r
}

func TestInvalidateMarksReplicaStale(t *testing.T) {
	r := invRig(t, 4, 1)
	frames := r.page(0, 2)
	r.cms[0].Write(GAddr{0, frames[0], 5}, 42, func() {})
	r.eng.Run()
	// Master has the data; the replica word is stale and marked.
	if r.mems[0].Read(frames[0], 5) != 42 {
		t.Fatal("master not written")
	}
	if !r.cms[2].isInvalid(frames[2], 5) {
		t.Fatal("replica word not invalidated")
	}
	if r.st.Nodes[2].Invalidations != 1 {
		t.Fatalf("invalidations = %d", r.st.Nodes[2].Invalidations)
	}
	// The ack chain still completed the write.
	if r.cms[0].PendingCount() != 0 {
		t.Fatal("write never acked")
	}
}

func TestInvalidatedReadRefetchesFromMaster(t *testing.T) {
	r := invRig(t, 4, 1)
	frames := r.page(0, 2)
	r.cms[0].Write(GAddr{0, frames[0], 5}, 42, func() {})
	r.eng.Run()
	var got memory.Word
	r.cms[2].Read(GAddr{2, frames[2], 5}, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 42 {
		t.Fatalf("stale read returned %d", got)
	}
	// The replica is repaired: the next read is local and fresh.
	if r.cms[2].isInvalid(frames[2], 5) {
		t.Fatal("replica not repaired after re-fetch")
	}
	if r.mems[2].Read(frames[2], 5) != 42 {
		t.Fatal("repair did not write the replica")
	}
	if r.st.Nodes[2].InvalidateMisses != 1 {
		t.Fatalf("invalidate misses = %d", r.st.Nodes[2].InvalidateMisses)
	}
	before := r.st.Nodes[2].LocalReads
	r.cms[2].Read(GAddr{2, frames[2], 5}, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 42 || r.st.Nodes[2].LocalReads != before+1 {
		t.Fatal("repaired word not served locally")
	}
}

func TestInvalidateRMWPropagates(t *testing.T) {
	r := invRig(t, 4, 1)
	frames := r.page(1, 3)
	var slot int
	r.cms[0].RMW(OpFadd, GAddr{1, frames[1], 0}, 7, func(s int) { slot = s })
	r.eng.Run()
	if _, ok := r.cms[0].TryVerify(slot); !ok {
		t.Fatal("no RMW result")
	}
	if r.mems[1].Read(frames[1], 0) != 7 {
		t.Fatal("master not updated")
	}
	if !r.cms[3].isInvalid(frames[3], 0) {
		t.Fatal("replica not invalidated by RMW")
	}
	// A read through the replica still sees the fresh value.
	var got memory.Word
	r.cms[3].Read(GAddr{3, frames[3], 0}, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 7 {
		t.Fatalf("replica read after RMW = %d", got)
	}
}

func TestRemoteReadOfStaleReplicaForwardsToMaster(t *testing.T) {
	// Node 3 (no copy) reads via node 2's replica while that word is
	// stale: the request must chase the master, not serve old data.
	r := invRig(t, 4, 1)
	frames := r.page(0, 2)
	r.cms[0].Write(GAddr{0, frames[0], 1}, 9, func() {})
	r.eng.Run()
	var got memory.Word
	r.cms[3].Read(GAddr{2, frames[2], 1}, func(v memory.Word) { got = v })
	r.eng.Run()
	if got != 9 {
		t.Fatalf("forwarded stale read = %d, want 9", got)
	}
}

func TestUpdateModeDoesNotInvalidate(t *testing.T) {
	r := newRig(t, 4, 1) // default: write-update
	frames := r.page(0, 2)
	r.cms[0].Write(GAddr{0, frames[0], 5}, 42, func() {})
	r.eng.Run()
	if r.cms[2].isInvalid(frames[2], 5) {
		t.Fatal("update mode marked a word invalid")
	}
	if r.mems[2].Read(frames[2], 5) != 42 {
		t.Fatal("update mode did not carry data")
	}
	if r.st.Totals().Invalidations != 0 {
		t.Fatal("invalidation counter moved in update mode")
	}
}

func TestInvalidateReadHeavySlowerThanUpdate(t *testing.T) {
	// The §2.2 claim, at protocol level: with a replica that is read
	// after every remote write, invalidation forces a refetch per
	// write while update delivers the data for free.
	countRefetches := func(invalidate bool) uint64 {
		r := newRig(t, 2, 1)
		if invalidate {
			for _, cm := range r.cms {
				cm.SetInvalidateMode(true)
			}
		}
		frames := r.page(0, 1)
		for i := 0; i < 20; i++ {
			r.cms[0].Write(GAddr{0, frames[0], 3}, memory.Word(i), func() {})
			r.eng.Run()
			r.cms[1].Read(GAddr{1, frames[1], 3}, func(memory.Word) {})
			r.eng.Run()
		}
		return r.st.Nodes[1].RemoteReads
	}
	if n := countRefetches(false); n != 0 {
		t.Fatalf("update mode caused %d refetches", n)
	}
	if n := countRefetches(true); n != 20 {
		t.Fatalf("invalidate mode caused %d refetches, want 20", n)
	}
}

func TestInvalidateGeneralCoherenceThroughMaster(t *testing.T) {
	// Concurrent writers through different entry points; after
	// quiescence every replica read (which consults staleness) yields
	// the master's value.
	r := invRig(t, 4, 1)
	frames := r.page(1, 0, 3)
	for i := 0; i < 10; i++ {
		r.cms[0].Write(GAddr{0, frames[0], 4}, memory.Word(100+i), func() {})
		r.cms[3].Write(GAddr{3, frames[3], 4}, memory.Word(1000+i), func() {})
	}
	r.eng.Run()
	want := r.mems[1].Read(frames[1], 4) // master value
	for _, n := range []mesh.NodeID{0, 3} {
		n := n
		var got memory.Word
		r.cms[n].Read(GAddr{n, frames[n], 4}, func(v memory.Word) { got = v })
		r.eng.Run()
		if got != want {
			t.Fatalf("node %d read %d, master has %d", n, got, want)
		}
	}
}

// TestInvalidationDropsCacheLine pins that an invalidation drops the
// replica's processor-cache line: a read of another word in the line
// of an invalidated word misses and pays the line fill.
func TestInvalidationDropsCacheLine(t *testing.T) {
	r := invRig(t, 4, 1)
	frames := r.page(0, 2)
	read := func() sim.Cycles {
		start := r.eng.Now()
		var at sim.Cycles
		r.cms[2].Read(GAddr{2, frames[2], 5}, func(memory.Word) { at = r.eng.Now() })
		r.eng.Run()
		return at - start
	}
	read() // fill the line holding words 4..7
	if c := read(); c != timing.CacheHit {
		t.Fatalf("warm read took %d cycles, want a hit (%d)", c, timing.CacheHit)
	}
	r.cms[0].Write(GAddr{0, frames[0], 4}, 42, func() {})
	r.eng.Run()
	misses := r.st.Nodes[2].CacheMisses
	if c := read(); c != timing.CacheLineFill {
		t.Fatalf("read after invalidating word 4 took %d cycles, want a line fill (%d)", c, timing.CacheLineFill)
	}
	if got := r.st.Nodes[2].CacheMisses; got != misses+1 {
		t.Fatalf("cache misses %d, want %d", got, misses+1)
	}
}

// TestInvalidateMissTraced pins that a refetch miss is traced like any
// other remote read: each emits an EvReadIssue on the reading node
// addressed to the master's word and a matching EvReadDone under the
// same cause, whose latency spans the two.
func TestInvalidateMissTraced(t *testing.T) {
	r := invRig(t, 4, 1)
	o := stats.NewObserver(stats.ObserveConfig{})
	o.Bind(r.eng.Now, stats.TraceMeta{Nodes: 4})
	r.st.AttachObserver(o)
	frames := r.page(0, 2)
	for off := uint32(5); off <= 6; off++ {
		r.cms[0].Write(GAddr{0, frames[0], off}, memory.Word(40+off), func() {})
	}
	r.eng.Run()
	returned := map[uint64]bool{}
	for off := uint32(5); off <= 6; off++ {
		var got memory.Word
		returned[r.cms[2].Read(GAddr{2, frames[2], off}, func(v memory.Word) { got = v })] = true
		r.eng.Run()
		if got != memory.Word(40+off) {
			t.Fatalf("word %d read %d, want %d", off, got, 40+off)
		}
	}
	if n := r.st.Nodes[2].InvalidateMisses; n != 2 {
		t.Fatalf("invalidate misses = %d, want 2", n)
	}
	issues := map[uint64]stats.Event{}
	pairs := 0
	for e := range o.All() {
		if e.Node != 2 {
			continue
		}
		switch e.Kind {
		case stats.EvReadIssue:
			if e.Cause == 0 {
				t.Fatal("EvReadIssue without a cause")
			}
			if _, dup := issues[e.Cause]; dup {
				t.Fatalf("cause %#x issued twice", e.Cause)
			}
			if !returned[e.Cause] {
				t.Fatalf("Read returned causes %v, not the refetch's %#x", returned, e.Cause)
			}
			if off := uint32(e.A & 0xffff); e.A != packAddr(GAddr{0, frames[0], off}) {
				t.Errorf("EvReadIssue addressed %#x, want the master's word %d", e.A, off)
			}
			issues[e.Cause] = e
		case stats.EvReadDone:
			is, ok := issues[e.Cause]
			if !ok {
				t.Fatalf("EvReadDone under cause %#x with no EvReadIssue", e.Cause)
			}
			delete(issues, e.Cause)
			if e.A != uint64(e.At-is.At) {
				t.Errorf("EvReadDone latency %d, want %d", e.A, e.At-is.At)
			}
			pairs++
		}
	}
	if pairs != 2 || len(issues) != 0 {
		t.Fatalf("%d paired EvReadIssue/EvReadDone, %d unpaired issues; want 2 and 0", pairs, len(issues))
	}
}

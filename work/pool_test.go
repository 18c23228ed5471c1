package work

import (
	"testing"

	"plus/internal/core"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/timing"
)

func newMachine(t *testing.T, w, h int) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.DefaultConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPoolProcessesAllSeeds(t *testing.T) {
	m := newMachine(t, 2, 2)
	pool := New(m, 4, 100, func(i int) int { return i % 4 })
	seeds := make([]int, 100)
	for i := range seeds {
		seeds[i] = i
	}
	pool.Seed(seeds...)
	got := make(map[int]int)
	for p := 0; p < 4; p++ {
		p := p
		m.Spawn(mesh.NodeID(p), func(th *proc.Thread) {
			for {
				it, ok := pool.Get(th, p)
				if !ok {
					return
				}
				got[it]++
				th.Compute(50)
				pool.Done(th)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("processed %d distinct items", len(got))
	}
	for it, n := range got {
		if n != 1 {
			t.Fatalf("item %d processed %d times", it, n)
		}
	}
}

func TestPoolDynamicAddFanOut(t *testing.T) {
	// Item 0 spawns a tree of work: processing item i adds 2i+1 and
	// 2i+2 while < N. All N items must be processed exactly once.
	const n = 63
	m := newMachine(t, 2, 2)
	pool := New(m, 4, n, func(i int) int { return i % 4 })
	pool.Seed(0)
	counts := make([]int, n)
	for p := 0; p < 4; p++ {
		p := p
		m.Spawn(mesh.NodeID(p), func(th *proc.Thread) {
			for {
				it, ok := pool.Get(th, p)
				if !ok {
					return
				}
				counts[it]++
				th.Compute(30)
				if 2*it+1 < n {
					pool.Add(th, 2*it+1)
				}
				if 2*it+2 < n {
					pool.Add(th, 2*it+2)
				}
				pool.Done(th)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for it, c := range counts {
		if c != 1 {
			t.Fatalf("item %d processed %d times", it, c)
		}
	}
}

func TestPoolDedupWhileQueued(t *testing.T) {
	// Adding an already-queued item is a no-op: it is processed once
	// per queued lifetime.
	m := newMachine(t, 2, 1)
	pool := New(m, 2, 10, func(i int) int { return i % 2 })
	pool.Seed(5)
	processed := 0
	m.Spawn(0, func(th *proc.Thread) {
		it, ok := pool.Get(th, 0)
		if !ok || it != 5 {
			t.Errorf("got %d %v", it, ok)
		}
		processed++
		// Re-add while we process (flag now clear) — this queues it
		// again legitimately.
		pool.Add(th, 5)
		pool.Add(th, 5) // second add while queued: deduplicated
		pool.Done(th)
		for {
			it, ok := pool.Get(th, 0)
			if !ok {
				return
			}
			processed++
			_ = it
			pool.Done(th)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if processed != 2 {
		t.Fatalf("processed %d times, want 2 (dedup failed)", processed)
	}
}

func TestPoolOverflowImpossible(t *testing.T) {
	// More items on one owner than a single hardware queue holds: the
	// pool must give that owner several queues and never livelock
	// (the regression behind the P=1 SSSP hang).
	m := newMachine(t, 1, 1)
	maxQ := timing.MaxQueueSize
	n := maxQ*2 + 37
	pool := New(m, 1, n, func(int) int { return 0 })
	if pool.Queues(0) < 3 {
		t.Fatalf("owner got %d queues for %d items", pool.Queues(0), n)
	}
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	pool.Seed(seeds...)
	done := 0
	m.Spawn(0, func(th *proc.Thread) {
		for {
			_, ok := pool.Get(th, 0)
			if !ok {
				return
			}
			done++
			pool.Done(th)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("processed %d of %d", done, n)
	}
}

func TestPoolStealing(t *testing.T) {
	// All items owned by proc 0; proc 1 must steal and help.
	m := newMachine(t, 2, 1)
	pool := New(m, 2, 40, func(int) int { return 0 })
	seeds := make([]int, 40)
	for i := range seeds {
		seeds[i] = i
	}
	pool.Seed(seeds...)
	byProc := [2]int{}
	for p := 0; p < 2; p++ {
		p := p
		m.Spawn(mesh.NodeID(p), func(th *proc.Thread) {
			for {
				_, ok := pool.Get(th, p)
				if !ok {
					return
				}
				byProc[p]++
				th.Compute(2000) // slow processing so the thief gets a share
				pool.Done(th)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if byProc[0]+byProc[1] != 40 {
		t.Fatalf("processed %v", byProc)
	}
	if byProc[1] == 0 {
		t.Fatal("processor 1 never stole")
	}
}

func TestSessionPipelinedGet(t *testing.T) {
	m := newMachine(t, 2, 1)
	pool := New(m, 2, 30, func(i int) int { return i % 2 })
	seeds := make([]int, 30)
	for i := range seeds {
		seeds[i] = i
	}
	pool.Seed(seeds...)
	got := make(map[int]bool)
	for p := 0; p < 2; p++ {
		p := p
		m.Spawn(mesh.NodeID(p), func(th *proc.Thread) {
			s := pool.Session(p)
			for {
				it, ok := s.Get(th)
				if !ok {
					return
				}
				if got[it] {
					t.Errorf("item %d delivered twice", it)
				}
				got[it] = true
				th.Compute(100)
				pool.Done(th)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestSessionCloseRestoresItem(t *testing.T) {
	m := newMachine(t, 2, 1)
	pool := New(m, 2, 4, func(int) int { return 0 })
	pool.Seed(0, 1, 2, 3)
	processed := 0
	m.Spawn(0, func(th *proc.Thread) {
		s := pool.Session(0)
		it, ok := s.Get(th)
		if !ok {
			t.Error("empty pool")
		}
		_ = it
		pool.Done(th)
		// Abandon the session with a prefetch in flight; the prefetched
		// item must go back to the queue.
		s.Close(th)
		for {
			it, ok := pool.Get(th, 0)
			if !ok {
				return
			}
			_ = it
			processed++
			pool.Done(th)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if processed != 3 {
		t.Fatalf("post-close processed %d, want 3", processed)
	}
}

func TestPoolValidation(t *testing.T) {
	m := newMachine(t, 2, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad ownerOf accepted")
			}
		}()
		New(m, 2, 4, func(int) int { return 7 })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero items accepted")
			}
		}()
		New(m, 2, 0, nil)
	}()
}

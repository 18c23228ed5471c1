package sssp

import (
	"slices"
	"testing"
	"testing/quick"

	"plus/internal/core"
	"plus/internal/mesh"
	"plus/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, 3, 10, 7)
	b := Generate(100, 3, 10, 7)
	if a.Edges() != b.Edges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("graphs differ for same seed")
		}
	}
}

func TestGenerateReachable(t *testing.T) {
	g := Generate(50, 2, 5, 1)
	dist := Dijkstra(g, 0)
	for v, d := range dist {
		if d == Inf {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
}

func TestDijkstraSmallGraph(t *testing.T) {
	// 0→1 (w by chain), plus whatever extras; verify triangle
	// inequality holds for all edges: dist[u] <= dist[v] + w(v,u).
	g := Generate(64, 4, 8, 3)
	dist := Dijkstra(g, 0)
	if dist[0] != 0 {
		t.Fatalf("dist[source] = %d", dist[0])
	}
	for v := 0; v < g.V; v++ {
		for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
			u := g.Targets[e]
			if dist[u] > dist[v]+g.Weights[e] {
				t.Fatalf("triangle violated at edge %d→%d", v, u)
			}
		}
	}
}

func TestDijkstraPathOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Generate(40, 3, 7, seed)
		dist := Dijkstra(g, 0)
		// Every non-source vertex must be reached through some edge
		// that exactly achieves its distance.
		for v := 1; v < g.V; v++ {
			found := false
			for s := 0; s < g.V && !found; s++ {
				for e := g.Offsets[s]; e < g.Offsets[s+1]; e++ {
					if g.Targets[e] == int32(v) && dist[s]+g.Weights[e] == dist[v] {
						found = true
						break
					}
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesDijkstraSingleProc(t *testing.T) {
	res, err := Run(Config{MeshW: 2, MeshH: 1, Procs: 1, Vertices: 128, Seed: 5, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestParallelMatchesDijkstraManyProcs(t *testing.T) {
	for _, copies := range []int{1, 2, 4} {
		res, err := Run(Config{MeshW: 4, MeshH: 2, Procs: 8, Vertices: 256, Seed: 11, Copies: copies, Validate: true})
		if err != nil {
			t.Fatalf("copies=%d: %v", copies, err)
		}
		if res.Relaxations < 256 {
			t.Fatalf("copies=%d: only %d relaxations", copies, res.Relaxations)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{MeshW: 4, MeshH: 1, Procs: 4, Vertices: 128, Seed: 3, Copies: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Messages != b.Messages {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Elapsed, a.Messages, b.Elapsed, b.Messages)
	}
}

func TestReplicationShiftsTraffic(t *testing.T) {
	// The Table 2-1 trends: with more copies, the read ratio
	// (local/remote) rises and the total/update ratio falls.
	base := Config{MeshW: 4, MeshH: 4, Procs: 16, Vertices: 512, Seed: 9, Validate: true}
	run := func(copies int) Result {
		cfg := base
		cfg.Copies = copies
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("copies=%d: %v", copies, err)
		}
		return res
	}
	r1 := run(1)
	r3 := run(3)
	if r3.ReadRatio <= r1.ReadRatio {
		t.Errorf("read ratio did not rise with replication: %f -> %f", r1.ReadRatio, r3.ReadRatio)
	}
	if r1.Updates != 0 && r3.UpdateRatio >= r1.UpdateRatio {
		t.Errorf("update ratio did not fall: %f -> %f", r1.UpdateRatio, r3.UpdateRatio)
	}
	if r3.Updates <= r1.Updates {
		t.Errorf("updates did not grow with copies: %d -> %d", r1.Updates, r3.Updates)
	}
}

func TestReplicationImprovesRuntime(t *testing.T) {
	// Figure 2-1's headline: at 16 processors, replication helps.
	base := Config{MeshW: 4, MeshH: 4, Procs: 16, Vertices: 512, Seed: 9}
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.Copies = 4
	r4, err := Run(repl)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Elapsed >= r1.Elapsed {
		t.Fatalf("replication did not help: %d >= %d cycles", r4.Elapsed, r1.Elapsed)
	}
}

// insertionNearest is the order nearest used to compute afresh on
// every call: an insertion sort of the other participating nodes by
// (hops, id).
func insertionNearest(procs int, home mesh.NodeID, hops func(a, b mesh.NodeID) int) []mesh.NodeID {
	type cand struct {
		n mesh.NodeID
		h int
	}
	var cs []cand
	for p := 0; p < procs; p++ {
		n := mesh.NodeID(p)
		if n == home {
			continue
		}
		cs = append(cs, cand{n, hops(home, n)})
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && (cs[j].h < cs[j-1].h || (cs[j].h == cs[j-1].h && cs[j].n < cs[j-1].n)); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	out := make([]mesh.NodeID, len(cs))
	for i, c := range cs {
		out[i] = c.n
	}
	return out
}

// TestNearestMatchesInsertionSort pins nearestK against the insertion
// sort it replaced, for every home of a square mesh with every node
// participating and of a non-square one with only some, at the
// replication fan-outs Figure 2-1 uses and at the whole order.
func TestNearestMatchesInsertionSort(t *testing.T) {
	for _, c := range []struct{ w, h, procs int }{{16, 16, 256}, {12, 5, 47}} {
		m := mesh.New(sim.NewEngine(), mesh.DefaultConfig(c.w, c.h))
		for home := mesh.NodeID(0); int(home) < c.procs; home++ {
			want := insertionNearest(c.procs, home, m.Hops)
			for _, k := range []int{1, 2, 3, 7, c.procs - 1} {
				if got := nearestK(c.procs, k, home, m.Hops); !slices.Equal(got, want[:k]) {
					t.Fatalf("%dx%d procs %d home %d k %d: %v, want %v", c.w, c.h, c.procs, home, k, got, want[:k])
				}
			}
		}
	}
}

// TestMachineNetContentionIsHonored pins that the contention knob on
// the caller's Machine config reaches the run: the 4x4 run queues on
// links and takes the cycles the contended run always took.
func TestMachineNetContentionIsHonored(t *testing.T) {
	mc := core.DefaultConfig(4, 4)
	mc.NetContention = true
	res, err := Run(Config{Seed: 1, Validate: true, Machine: &mc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.QueueWait != 33886 || res.Elapsed != 177262 {
		t.Fatalf("queue wait %d, elapsed %d; want 33886, 177262", res.Net.QueueWait, res.Elapsed)
	}
}

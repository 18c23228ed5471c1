package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"plus/internal/memory"
	"plus/internal/mesh"
)

// pathLength sums the hop counts along a copy-list.
func pathLength(net *mesh.Mesh, list []memory.GPage) int {
	total := 0
	for i := 0; i+1 < len(list); i++ {
		total += net.Hops(list[i].Node, list[i+1].Node)
	}
	return total
}

// TestInsertionOrderingNearOptimal checks the §2.3 claim ("the
// operating system kernel orders the copy-list to minimize the network
// path length"): for random replication sequences, the nearest-
// insertion heuristic stays within 2x of the brute-force optimal chain
// (its classical approximation bound) — it is a heuristic, so exact
// optimality is not promised.
func TestInsertionOrderingNearOptimal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 4, 4)
		home := mesh.NodeID(rng.Intn(16))
		vp := r.k.AllocPage(home)
		perm := rng.Perm(16)
		added := 0
		for _, n := range perm {
			node := mesh.NodeID(n)
			if node == home || added >= 5 {
				continue
			}
			added++
			r.k.ReplicateNow(vp, node)
		}
		list := r.k.CopyList(vp)
		got := pathLength(r.net, list)
		best := optimalChain(r.net, list)
		if got > 2*best {
			t.Fatalf("seed %d: ordered chain %d hops > 2x optimal %d", seed, got, best)
		}
	}
}

// optimalChain brute-forces the shortest path through all copies with
// the master fixed first.
func optimalChain(net *mesh.Mesh, list []memory.GPage) int {
	rest := append([]memory.GPage{}, list[1:]...)
	best := 1 << 30
	var permute func(k int)
	permute = func(k int) {
		if k == len(rest) {
			chain := append([]memory.GPage{list[0]}, rest...)
			if l := pathLength(net, chain); l < best {
				best = l
			}
			return
		}
		for i := k; i < len(rest); i++ {
			rest[k], rest[i] = rest[i], rest[k]
			permute(k + 1)
			rest[k], rest[i] = rest[i], rest[k]
		}
	}
	permute(0)
	return best
}

// TestCopyListChainMatchesCentralTable verifies the hardware next-copy
// tables always mirror the kernel's central list after arbitrary
// replicate/delete sequences.
func TestCopyListChainMatchesCentralTable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 50))
		r := newRig(t, 4, 2)
		vp := r.k.AllocPage(mesh.NodeID(rng.Intn(8)))
		for step := 0; step < 20; step++ {
			list := r.k.CopyList(vp)
			if rng.Intn(3) > 0 || len(list) == 1 {
				r.k.ReplicateNow(vp, mesh.NodeID(rng.Intn(8)))
			} else {
				victim := list[rng.Intn(len(list))]
				r.k.DeleteCopy(vp, victim.Node)
			}
			// Walk the hardware chain from the master and compare.
			list = r.k.CopyList(vp)
			cur := list[0]
			for i := 0; ; i++ {
				if i >= len(list) || list[i] != cur {
					t.Fatalf("seed %d step %d: chain diverges at %d: %v vs central %v", seed, step, i, cur, list)
				}
				m, ok := r.cms[cur.Node].Master(cur.Page)
				if !ok || m != list[0] {
					t.Fatalf("seed %d step %d: master pointer wrong at %v", seed, step, cur)
				}
				next, ok := r.cms[cur.Node].Next(cur.Page)
				if !ok {
					t.Fatalf("seed %d step %d: missing next entry at %v", seed, step, cur)
				}
				if next.IsNil() {
					if i != len(list)-1 {
						t.Fatalf("seed %d step %d: chain ends early at %d of %d", seed, step, i, len(list))
					}
					break
				}
				cur = next
			}
		}
	}
}

// TestResolvePrefersNearestEverywhere property-checks Resolve against
// brute force for random replica placements: every node resolves to
// the copy the fewest hops away, and among equally near copies to the
// one on the lowest node ID.
func TestResolvePrefersNearestEverywhere(t *testing.T) {
	check := func(t *testing.T, r *rig, vp memory.VPage, label string) {
		t.Helper()
		holders := r.k.CopyNodes(vp)
		for n := mesh.NodeID(0); n < 16; n++ {
			g, err := r.k.Resolve(n, vp)
			if err != nil {
				t.Fatal(err)
			}
			want := holders[0]
			for _, h := range holders[1:] {
				if d, best := r.net.Hops(n, h), r.net.Hops(n, want); d < best || (d == best && h < want) {
					want = h
				}
			}
			if g.Node != want {
				t.Fatalf("%s: node %d resolved to %d (%d hops), want %d (%d hops)",
					label, n, g.Node, r.net.Hops(n, g.Node), want, r.net.Hops(n, want))
			}
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 99))
		r := newRig(t, 4, 4)
		vp := r.k.AllocPage(mesh.NodeID(rng.Intn(16)))
		for k := 0; k < 3; k++ {
			r.k.ReplicateNow(vp, mesh.NodeID(rng.Intn(16)))
		}
		check(t, r, vp, fmt.Sprintf("seed %d", seed))
	}
	// A directed tie: from node 0 the master on (1,1) and the copy on
	// (2,0) are both 2 hops away, and the copy, listed second, has the
	// lower ID.
	r := newRig(t, 4, 4)
	vp := r.k.AllocPage(r.net.ID(1, 1))
	r.k.ReplicateNow(vp, r.net.ID(2, 0))
	if g, err := r.k.Resolve(0, vp); err != nil || g.Node != r.net.ID(2, 0) {
		t.Fatalf("tie from node 0 resolved to %d (err %v), want %d", g.Node, err, r.net.ID(2, 0))
	}
	check(t, r, vp, "directed tie")
}

package sssp

import (
	"container/heap"
	"math/rand"
)

// Graph is a weighted digraph in CSR form.
type Graph struct {
	V       int
	Offsets []int32  // len V+1
	Targets []int32  // len E
	Weights []uint32 // len E
}

// Generate builds a deterministic random digraph: a weight-1..maxW
// chain 0→1→…→V-1 guaranteeing reachability from vertex 0, plus
// degree-1 extra edges per vertex drawn from a spatially local window
// (90% within locality = 128 vertices ahead, 10% uniform) —
// shortest-path instances have spatial structure, and that structure
// is what makes the unreplicated configuration's load imbalance
// visible (§2.5).
func Generate(v, degree int, maxW uint32, seed int64) *Graph {
	const locality = 128
	if v < 2 {
		panic("sssp: graph needs at least 2 vertices")
	}
	if degree < 1 {
		degree = 1
	}
	if maxW < 1 {
		maxW = 1
	}
	rng := rand.New(rand.NewSource(seed))
	adj := make([][2]int32, 0, v*degree)
	offsets := make([]int32, v+1)
	for s := 0; s < v; s++ {
		offsets[s] = int32(len(adj))
		if s+1 < v {
			adj = append(adj, [2]int32{int32(s + 1), int32(1 + rng.Intn(int(maxW)))})
		}
		for e := 1; e < degree; e++ {
			var t int
			if rng.Intn(10) > 0 { // local edge: within the window ahead
				t = (s + 1 + rng.Intn(locality)) % v
			} else { // occasional long-range edge
				t = rng.Intn(v)
			}
			if t == s {
				t = (t + 1) % v
			}
			adj = append(adj, [2]int32{int32(t), int32(1 + rng.Intn(int(maxW)))})
		}
	}
	offsets[v] = int32(len(adj))
	g := &Graph{
		V:       v,
		Offsets: offsets,
		Targets: make([]int32, len(adj)),
		Weights: make([]uint32, len(adj)),
	}
	for i, e := range adj {
		g.Targets[i] = e[0]
		g.Weights[i] = uint32(e[1])
	}
	return g
}

// Edges returns the number of edges.
func (g *Graph) Edges() int { return len(g.Targets) }

// Inf is the unreached distance. It keeps the top bit clear so
// distance words never collide with the hardware flag bit.
const Inf uint32 = 0x7fffffff

// Dijkstra computes single-point shortest paths sequentially (the
// reference the parallel runs are validated against).
func Dijkstra(g *Graph, source int) []uint32 {
	dist := make([]uint32, g.V)
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	pq := &vheap{{int32(source), 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(vitem)
		if it.d > dist[it.v] {
			continue
		}
		for e := g.Offsets[it.v]; e < g.Offsets[it.v+1]; e++ {
			u := g.Targets[e]
			nd := it.d + g.Weights[e]
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, vitem{u, nd})
			}
		}
	}
	return dist
}

type vitem struct {
	v int32
	d uint32
}

type vheap []vitem

func (h vheap) Len() int            { return len(h) }
func (h vheap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h vheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vheap) Push(x interface{}) { *h = append(*h, x.(vitem)) }
func (h *vheap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

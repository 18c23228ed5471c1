package mesh

import (
	"testing"

	"plus/internal/sim"
)

// BenchmarkMeshSend measures the full message path: pooled alloc,
// route, typed delivery event, recycle.
func BenchmarkMeshSend(b *testing.B) {
	b.ReportAllocs()
	eng, m := newDrainedMesh(4, 4, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(0, 15, 3, m.AllocMsg())
		eng.Run()
	}
}

// BenchmarkMeshSendContended measures a contended send on a 16x16
// mesh: bursts of 64 sends between spread pairs (node i to node 255-i,
// so the legs run in all four directions and cross in the middle),
// each reserving its path's links before its delivery is queued.
func BenchmarkMeshSendContended(b *testing.B) {
	b.ReportAllocs()
	eng, m := newDrainedMesh(16, 16, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(NodeID(i%256), NodeID(255-i%256), 4, m.AllocMsg())
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// newDrainedMesh returns a mesh whose every port recycles what it
// receives.
func newDrainedMesh(w, h int, contention bool) (*sim.Engine, *Mesh) {
	eng, m := newTestMesh(w, h, contention)
	drain := PortFunc(func(p *Msg) { m.FreeMsg(p) })
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		m.Attach(n, drain)
	}
	return eng, m
}

// TestSendAllocFree pins the message path — AllocMsg, Send (with the
// contention model on), typed delivery, FreeMsg — at zero allocations
// once the pool and the event heap are warm. This is the regression
// guard for reintroducing a per-message closure or payload copy. The
// 16x16 mesh and the node i to 255-i pairs give long legs in all four
// directions.
func TestSendAllocFree(t *testing.T) {
	eng, m := newDrainedMesh(16, 16, true)
	// Warm the pool and heap.
	for i := 0; i < 64; i++ {
		m.Send(NodeID(i), NodeID(255-i), 4, m.AllocMsg())
	}
	eng.Run()
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			m.Send(NodeID(i*4), NodeID(255-i*4), 4, m.AllocMsg())
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("send path allocates %v objects per run, want 0", avg)
	}
}

package mesh

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"plus/internal/sim"
	"plus/internal/stats"
)

func newTestMesh(w, h int, contention bool) (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(w, h)
	cfg.Contention = contention
	return eng, New(eng, cfg)
}

func TestCoordRoundTrip(t *testing.T) {
	_, m := newTestMesh(4, 3, false)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Fatalf("node %d -> (%d,%d) -> %d", id, x, y, m.ID(x, y))
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	_, m := newTestMesh(4, 4, false)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 15, 6},
		{5, 10, 2},
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := m.Hops(c.b, c.a); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestPaperLatencyCalibration(t *testing.T) {
	// Round trip between adjacent nodes is about 24 cycles; each extra
	// hop adds 4 cycles (paper §3.1).
	_, m := newTestMesh(8, 8, false)
	adjacent := m.Latency(0, 1) + m.Latency(1, 0)
	if adjacent != 24 {
		t.Fatalf("adjacent round trip = %d cycles, want 24", adjacent)
	}
	twoHop := m.Latency(0, 2) + m.Latency(2, 0)
	if twoHop != 28 {
		t.Fatalf("two-hop round trip = %d cycles, want 28", twoHop)
	}
	threeHop := m.Latency(0, m.ID(2, 1)) + m.Latency(m.ID(2, 1), 0)
	if threeHop != 32 {
		t.Fatalf("three-hop round trip = %d cycles, want 32", threeHop)
	}
}

func TestPathDimensionOrder(t *testing.T) {
	_, m := newTestMesh(4, 4, false)
	// From (0,0) to (2,2): X first (1,0),(2,0) then Y (2,1),(2,2).
	path := hopPath(m, m.ID(0, 0), m.ID(2, 2))
	want := []NodeID{m.ID(0, 0), m.ID(1, 0), m.ID(2, 0), m.ID(2, 1), m.ID(2, 2)}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestPathLengthMatchesHops(t *testing.T) {
	_, m := newTestMesh(5, 7, false)
	f := func(a, b uint8) bool {
		src := NodeID(int(a) % m.Nodes())
		dst := NodeID(int(b) % m.Nodes())
		path := hopPath(m, src, dst)
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		// Consecutive nodes must be mesh neighbours.
		for i := 0; i+1 < len(path); i++ {
			if m.Hops(path[i], path[i+1]) != 1 {
				return false
			}
		}
		return len(path)-1 == m.Hops(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendDelivers(t *testing.T) {
	eng, m := newTestMesh(4, 4, false)
	o := stats.NewObserver(stats.ObserveConfig{})
	o.Bind(eng.Now, stats.TraceMeta{})
	m.SetObservers([]*stats.Observer{o})
	var got *Msg
	var at sim.Cycles
	m.Attach(5, PortFunc(func(p *Msg) { got, at = p, eng.Now() }))
	m.Attach(0, PortFunc(func(p *Msg) {}))
	ms := m.AllocMsg()
	ms.ID = 42
	m.Send(0, 5, 2, ms)
	eng.Run()
	if got == nil || got.ID != 42 {
		t.Fatalf("payload = %v", got)
	}
	if got.Dst != 5 {
		t.Fatalf("Dst = %d, want 5", got.Dst)
	}
	if want := m.Latency(0, 5); at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
	// One 2-flit injection crossing two links, then one delivery.
	var kinds []stats.EventKind
	for e := range o.All() {
		kinds = append(kinds, e.Kind)
		if e.Kind == stats.EvNetInject && e.B != 2 {
			t.Fatalf("injected %d flits, want 2", e.B)
		}
	}
	if want := []stats.EventKind{stats.EvNetInject, stats.EvNetHop, stats.EvNetHop, stats.EvNetDeliver}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
}

func TestSendToSelfAttachRequired(t *testing.T) {
	eng, m := newTestMesh(2, 2, false)
	defer func() {
		if recover() == nil {
			t.Error("send to unattached node did not panic")
		}
	}()
	m.Send(0, 1, 1, m.AllocMsg())
	eng.Run()
}

func TestContentionSerializesLink(t *testing.T) {
	eng, m := newTestMesh(4, 1, true)
	var times []sim.Cycles
	m.Attach(1, PortFunc(func(p *Msg) { times = append(times, eng.Now()); m.FreeMsg(p) }))
	// Two 8-flit messages over the same link at t=0: the second waits
	// for the first message's link occupancy (8 flits * 2 cycles).
	m.Send(0, 1, 8, m.AllocMsg())
	m.Send(0, 1, 8, m.AllocMsg())
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	base := m.Latency(0, 1)
	if times[0] != base {
		t.Fatalf("first delivery at %d, want %d", times[0], base)
	}
	if times[1] != base+16 {
		t.Fatalf("second delivery at %d, want %d (queued)", times[1], base+16)
	}
	if m.Stats().QueueWait != 16 {
		t.Fatalf("queue wait = %d, want 16", m.Stats().QueueWait)
	}
}

func TestContentionDisjointLinksNoWait(t *testing.T) {
	eng, m := newTestMesh(4, 4, true)
	delivered := 0
	m.Attach(1, PortFunc(func(p *Msg) { delivered++; m.FreeMsg(p) }))
	m.Attach(m.ID(0, 1), PortFunc(func(p *Msg) { delivered++; m.FreeMsg(p) }))
	m.Send(0, 1, 8, m.AllocMsg())          // east link of node 0
	m.Send(0, m.ID(0, 1), 8, m.AllocMsg()) // south link of node 0
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	if w := m.Stats().QueueWait; w != 0 {
		t.Fatalf("disjoint links queued %d cycles", w)
	}
}

func TestDirectedLinksExact(t *testing.T) {
	// The contention table holds exactly one entry per physical
	// directed link: 2*((W-1)*H + W*(H-1)). The old table allocated
	// four slots per node, inventing links off the mesh edges.
	cases := []struct{ w, h int }{{1, 1}, {2, 1}, {1, 5}, {4, 4}, {5, 3}, {8, 2}}
	for _, c := range cases {
		_, m := newTestMesh(c.w, c.h, true)
		want := 2 * ((c.w-1)*c.h + c.w*(c.h-1))
		if got := len(m.LinkLabels()); got != want {
			t.Errorf("%dx%d mesh: %d directed links, want %d", c.w, c.h, got, want)
		}
	}
}

// TestContentionCornerNodesNonSquare drives contended traffic between
// all four corners of a non-square mesh: corner nodes have the fewest
// links (exactly two), so an indexing error in the exact per-link
// table — or a route touching a nonexistent edge link — shows up here
// as a panic or a missing delivery.
func TestContentionCornerNodesNonSquare(t *testing.T) {
	eng, m := newTestMesh(5, 3, true)
	corners := []NodeID{m.ID(0, 0), m.ID(4, 0), m.ID(0, 2), m.ID(4, 2)}
	delivered := 0
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		m.Attach(n, PortFunc(func(p *Msg) { delivered++; m.FreeMsg(p) }))
	}
	sent := 0
	for _, src := range corners {
		for _, dst := range corners {
			if src == dst {
				continue
			}
			// Two bulky messages per pair queue on the shared first
			// link out of the corner.
			m.Send(src, dst, 8, m.AllocMsg())
			m.Send(src, dst, 8, m.AllocMsg())
			sent += 2
		}
	}
	eng.Run()
	if delivered != sent {
		t.Fatalf("delivered %d of %d messages", delivered, sent)
	}
	if m.Stats().QueueWait == 0 {
		t.Fatal("no queueing observed on shared corner links")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0x0 mesh did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Width: 0, Height: 0})
}

// route is the test oracle for the leg walk: it steps the
// dimension-ordered path (X first, then Y) one directed link at a time,
// choosing each hop's direction from the coordinates still to cover.
type route struct {
	w, x, y, dx, dy int
	// from and dir name the current link: the node it leaves and its
	// direction (valid after next returns true).
	from NodeID
	dir  int
}

func newRoute(m *Mesh, src, dst NodeID) route {
	w := m.cfg.Width
	return route{w: w, x: int(src) % w, y: int(src) / w, dx: int(dst) % w, dy: int(dst) / w}
}

// next steps onto the path's next link, reporting false once the walk
// has reached the destination.
func (r *route) next() bool {
	switch {
	case r.x < r.dx:
		r.dir = dirEast
	case r.x > r.dx:
		r.dir = dirWest
	case r.y < r.dy:
		r.dir = dirSouth
	case r.y > r.dy:
		r.dir = dirNorth
	default:
		return false
	}
	r.from = NodeID(r.y*r.w + r.x)
	r.x += dirStep[r.dir][0]
	r.y += dirStep[r.dir][1]
	return true
}

// hopLink returns the dense id of the directed link leaving from in
// direction dir and its linkFree entry, failing loudly where the mesh
// edge has none.
func hopLink(m *Mesh, from NodeID, dir int) (li, fi int) {
	slot := m.linkSlot[int(from)*4+dir]
	if slot < 0 {
		panic(fmt.Sprintf("no link from node %d in direction %d", from, dir))
	}
	return int(slot), dir*m.Nodes() + int(from)
}

// hopPath returns the nodes the hop walk visits from src to dst,
// inclusive of both endpoints.
func hopPath(m *Mesh, src, dst NodeID) []NodeID {
	var path []NodeID
	for r := newRoute(m, src, dst); r.next(); {
		path = append(path, r.from)
	}
	return append(path, dst)
}

// hopAdmit is admit over the hop walk.
func hopAdmit(m *Mesh, t sim.Cycles, src, dst NodeID) bool {
	bufCap := sim.Cycles(m.cfg.Faults.LinkBufFlits) * FlitCycles
	for r := newRoute(m, src, dst); r.next(); {
		_, fi := hopLink(m, r.from, r.dir)
		if m.linkFree[fi] > t && m.linkFree[fi]-t > bufCap {
			return false
		}
	}
	return true
}

// hopContendAt is contendAt over the hop walk.
func hopContendAt(m *Mesh, t0 sim.Cycles, src, dst NodeID, sizeFlits int, cause uint64) sim.Cycles {
	srcShard := m.shardOf[src]
	o := m.obsFor(srcShard)
	occupancy := sim.Cycles(sizeFlits) * FlitCycles
	var wait sim.Cycles
	t := t0
	for r := newRoute(m, src, dst); r.next(); {
		li, fi := hopLink(m, r.from, r.dir)
		var hopWait sim.Cycles
		if m.cfg.Contention {
			if m.linkFree[fi] > t {
				hopWait = m.linkFree[fi] - t
				wait += hopWait
				t = m.linkFree[fi]
			}
			m.linkFree[fi] = t + occupancy
		}
		if o != nil {
			m.linkBusy[srcShard][li] += occupancy
			if m.cfg.Contention {
				o.Metrics.HopQueue.Observe(uint64(hopWait))
			}
			o.EmitAt(t, stats.EvNetHop, int(r.from), uint8(r.dir), cause,
				uint64(li), uint64(occupancy))
		}
		t += PerHop
	}
	m.shStats[srcShard].QueueWait += wait
	return wait
}

// TestLegWalkMatchesHopWalk drives seeded random sends through the leg
// walk and through the hop-by-hop oracle on twin meshes, with
// contention on and off and with and without an observer, and demands
// identical waits, link reservations and backlogs, queue statistics,
// hop histograms, link occupancy and EvNetHop streams, plus identical LinkBufFlits
// admission verdicts at every buffer size from 1 to 8 flits.
func TestLegWalkMatchesHopWalk(t *testing.T) {
	for _, g := range []struct{ w, h int }{{1, 1}, {1, 8}, {8, 1}, {5, 3}, {16, 16}} {
		for _, contention := range []bool{true, false} {
			for _, observed := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/contention=%v/observed=%v", g.w, g.h, contention, observed)
				t.Run(name, func(t *testing.T) {
					legWalkAgainstOracle(t, g.w, g.h, contention, observed)
				})
			}
		}
	}
}

func legWalkAgainstOracle(t *testing.T, w, h int, contention, observed bool) {
	twin := func() (*Mesh, *stats.Observer) {
		_, m := newTestMesh(w, h, contention)
		if !observed {
			return m, nil
		}
		o := stats.NewObserver(stats.ObserveConfig{Events: 1 << 16})
		o.Bind(func() sim.Cycles { return 0 }, stats.TraceMeta{})
		m.SetObservers([]*stats.Observer{o})
		return m, o
	}
	legs, legObs := twin()
	hops, hopObs := twin()
	rng := rand.New(rand.NewSource(int64(w*100 + h)))
	n := legs.Nodes()
	var now sim.Cycles
	refused := 0
	for i := 0; i < 2000; i++ {
		now += sim.Cycles(rng.Intn(4))
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		flits := 1 + rng.Intn(8)
		for buf := 1; buf <= 8; buf++ {
			legs.cfg.Faults.LinkBufFlits = buf
			hops.cfg.Faults.LinkBufFlits = buf
			got, want := legs.admit(now, src, dst), hopAdmit(hops, now, src, dst)
			if got != want {
				t.Fatalf("send %d (%d->%d at %d), LinkBufFlits %d: admit %v, hop walk %v",
					i, src, dst, now, buf, got, want)
			}
			if !want {
				refused++
			}
		}
		cause := uint64(i + 1)
		if got, want := legs.contendAt(now, src, dst, flits, cause), hopContendAt(hops, now, src, dst, flits, cause); got != want {
			t.Fatalf("send %d (%d->%d at %d): wait %d, hop walk %d", i, src, dst, now, got, want)
		}
		if !reflect.DeepEqual(legs.linkFree, hops.linkFree) {
			t.Fatalf("send %d (%d->%d at %d): linkFree diverges from the hop walk", i, src, dst, now)
		}
	}
	if got, want := legs.Stats().QueueWait, hops.Stats().QueueWait; got != want {
		t.Fatalf("QueueWait %d, hop walk %d", got, want)
	}
	if contention && w*h > 1 && (legs.Stats().QueueWait == 0 || refused == 0) {
		t.Fatalf("QueueWait %d, %d admissions refused: the workload exercises no contention",
			legs.Stats().QueueWait, refused)
	}
	// The clock stays at 0, so each link's backlog is its free cycle,
	// read through the hop walk's link numbering.
	backlog := make([]sim.Cycles, len(legs.LinkBacklog()))
	for r := 0; r < n; r++ {
		for dir := 0; dir < 4; dir++ {
			if _, ok := hops.neighbor(NodeID(r), dir); ok {
				li, fi := hopLink(hops, NodeID(r), dir)
				backlog[li] = hops.linkFree[fi]
			}
		}
	}
	if !reflect.DeepEqual(legs.LinkBacklog(), backlog) {
		t.Fatalf("LinkBacklog %v, hop walk %v", legs.LinkBacklog(), backlog)
	}
	if !observed {
		return
	}
	if legObs.Metrics.HopQueue != hopObs.Metrics.HopQueue {
		t.Fatalf("HopQueue %+v, hop walk %+v", legObs.Metrics.HopQueue, hopObs.Metrics.HopQueue)
	}
	if !reflect.DeepEqual(legs.LinkBusyTotals(), hops.LinkBusyTotals()) {
		t.Fatal("link occupancy diverges from the hop walk")
	}
	got, want := slices.Collect(legObs.All()), slices.Collect(hopObs.All())
	if len(got) != len(want) || (w*h > 1 && len(got) == 0) {
		t.Fatalf("%d EvNetHop events, hop walk %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %v, hop walk %v", i, got[i], want[i])
		}
	}
}

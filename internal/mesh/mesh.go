// Package mesh models the PLUS interconnection network: a 2-D mesh of
// nodes connected by point-to-point links with a router per node
// (Caltech mesh router in the original hardware, five I/O link pairs:
// one to the processor and one per mesh neighbour).
//
// Routing is dimension-ordered (X first, then Y), which is deadlock-free
// and matches wormhole mesh routers of the period. Latency follows the
// paper's measured constants: the round trip between adjacent nodes is
// 24 cycles and each extra hop adds 4 cycles, i.e. a one-way message
// costs Base + PerHop*hops with Base=10 and PerHop=2.
//
// An optional contention model serializes flits over each directed
// link: a message of S flits occupies each link on its path for S
// cycles, and messages queue FIFO behind earlier traffic. The paper's
// experiments ran the network lightly loaded, so contention is off by
// default; the ablation benches flip it on.
//
// Messages are typed: every payload travels in a shared Msg wire
// struct delivered to a per-node Port, and Msg objects (with their
// payload slices) are recycled through a free-list, so the message
// path performs no per-send allocation and no interface boxing.
//
// An optional unreliable-network mode (FaultConfig) departs from the
// paper's perfect interconnect: a seeded PRNG drops, duplicates and
// delays messages deterministically at injection, and finite per-link
// buffers bounce overflowing messages back to their sender as NACKs
// instead of queueing unboundedly. The coherence layer's reliability
// sublayer (internal/coherence) recovers from all of it; with every
// fault knob at zero this file's behaviour is bit-identical to the
// reliable network.
package mesh

import (
	"fmt"
	"math/rand"
	"sort"

	"plus/internal/memory"
	"plus/internal/node"
	"plus/internal/sim"
	"plus/internal/stats"
)

// NodeID identifies a mesh node; IDs are assigned row-major:
// id = y*Width + x. It aliases node.ID, the leaf type shared with the
// memory package's global page addresses.
type NodeID = node.ID

// The network's latency constants: an adjacent round trip costs
// 2*(Base+PerHop) = 24 cycles and each extra hop adds 2*PerHop = 4.
// [paper]
const (
	// Base is the fixed one-way latency of a message (router and
	// interface overhead at both ends), in cycles.
	Base sim.Cycles = 10
	// PerHop is the added one-way latency per link traversed.
	PerHop sim.Cycles = 2
	// FlitCycles is the link occupancy per flit when Contention is on.
	// [chosen: 2]
	FlitCycles sim.Cycles = 2
)

// Config describes the mesh geometry and network model.
type Config struct {
	Width  int
	Height int
	// Contention, when true, serializes flits on each directed link.
	Contention bool
	// Faults configures the unreliable-network mode. The zero value is
	// the paper's perfect network.
	Faults FaultConfig
	// Shards partitions the mesh into that many equal contiguous
	// row-major bands of nodes, each simulated on its own event queue
	// under conservative lookahead (0 or 1 = serial). The shard count
	// must tile the mesh: Width*Height divisible by Shards. Every
	// cross-shard, contended or bounded send rides its engine's Defer to
	// the next barrier, replayed in serial dispatch order at every count.
	Shards int
}

// MaxNodes bounds the supported mesh size (64x64). The limit is a
// sanity check, not an architectural one: per-node state is O(nodes),
// and a config with an absurd node count is almost always a typo.
const MaxNodes = 64 * 64

// FaultConfig is the deterministic fault model for the unreliable
// network mode. Faults are injected at Send from a PRNG seeded with
// Seed, so a run with the same seed, configuration and traffic replays
// the exact same fault sequence.
type FaultConfig struct {
	// Seed seeds the fault PRNG.
	Seed int64
	// DropRate is the probability in [0, 1] that an injected message is
	// silently lost before reaching its destination.
	DropRate float64
	// DupRate is the probability that a delivered message arrives
	// twice (the spurious copy one cycle behind the original).
	DupRate float64
	// DelayRate is the probability that a message suffers an extra
	// delay, uniform in [1, DelayMax] cycles, on top of its modeled
	// latency. Delays reorder traffic between node pairs.
	DelayRate float64
	// DelayMax bounds the injected delay; required when DelayRate > 0.
	DelayMax sim.Cycles
	// LinkBufFlits bounds the flits a directed link may hold queued
	// (router buffering) when the contention model is on. A message
	// whose path includes a link with more than LinkBufFlits flits
	// already waiting is refused at injection and bounced back to the
	// sender with Msg.Nacked set, after Base cycles (the reverse
	// flow-control signal). 0 means unlimited buffering. Requires
	// Contention, which models the queues being bounded; every send
	// waits for the next barrier (see pendingSend).
	LinkBufFlits int
	// Crashes is an explicit, deterministic crash/restart script: while
	// a node is down ([At, At+Duration)), the mesh silently discards
	// every message addressed to it (and anything it tries to inject),
	// its processor halts at its next memory reference, and on restart
	// it has lost all volatile coherence-manager and page-table state.
	// The node goes down and back at the barrier after each instant.
	// Recovery is the kernel's failover protocol (see internal/kernel).
	// Scripted crashes arm the reliability sublayer like the message
	// faults above; an empty script leaves every hot path untouched.
	Crashes []CrashEvent
}

// CrashEvent schedules one node outage: Node is down for
// [At, At+Duration) and restarts at At+Duration. Duration must be
// positive — a node that never restarts would strand every thread
// blocked on state it holds (halt-forever is out of scope).
type CrashEvent struct {
	Node     NodeID
	At       sim.Cycles
	Duration sim.Cycles
}

// Enabled reports whether any part of the fault model is active — the
// condition under which the coherence layer arms its reliability
// sublayer.
func (f FaultConfig) Enabled() bool {
	return f.DropRate > 0 || f.DupRate > 0 || f.DelayRate > 0 || f.LinkBufFlits > 0 ||
		len(f.Crashes) > 0
}

// lossy reports whether the PRNG-driven faults (drop/dup/delay) are on.
func (f FaultConfig) lossy() bool {
	return f.DropRate > 0 || f.DupRate > 0 || f.DelayRate > 0
}

// Validate reports whether the configuration is usable. mesh.New
// panics on an invalid config; core.NewMachine returns the error.
func (c Config) Validate() error {
	rate := func(name string, r float64) error {
		if r < 0 || r > 1 || r != r {
			return fmt.Errorf("mesh: %s %v outside [0, 1]", name, r)
		}
		return nil
	}
	switch {
	case c.Width < 1 || c.Height < 1:
		return fmt.Errorf("mesh: invalid geometry %dx%d (dims must be positive)", c.Width, c.Height)
	case c.Width*c.Height > MaxNodes:
		return fmt.Errorf("mesh: %dx%d = %d nodes exceeds the supported maximum %d (64x64); large-scale runs top out at 32x32 with sharding",
			c.Width, c.Height, c.Width*c.Height, MaxNodes)
	case c.Shards < 0:
		return fmt.Errorf("mesh: negative shard count %d", c.Shards)
	case c.Shards > c.Width*c.Height:
		return fmt.Errorf("mesh: %d shards exceed the mesh's %d nodes (%dx%d): a shard must own at least one node",
			c.Shards, c.Width*c.Height, c.Width, c.Height)
	case c.Shards > 1 && c.Width*c.Height%c.Shards != 0:
		return fmt.Errorf("mesh: %d shards do not tile the %dx%d mesh: %d nodes %% %d shards = %d left over (pick a divisor of the node count)",
			c.Shards, c.Width, c.Height, c.Width*c.Height, c.Shards, c.Width*c.Height%c.Shards)
	case c.Faults.LinkBufFlits < 0:
		return fmt.Errorf("mesh: negative LinkBufFlits %d", c.Faults.LinkBufFlits)
	case c.Faults.LinkBufFlits > 0 && !c.Contention:
		return fmt.Errorf("mesh: LinkBufFlits requires the contention model (bounded buffers bound the contention queues)")
	case c.Faults.DelayRate > 0 && c.Faults.DelayMax < 1:
		return fmt.Errorf("mesh: DelayRate %v requires DelayMax >= 1", c.Faults.DelayRate)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"DropRate", c.Faults.DropRate}, {"DupRate", c.Faults.DupRate}, {"DelayRate", c.Faults.DelayRate}} {
		if err := rate(r.name, r.v); err != nil {
			return err
		}
	}
	for i, e := range c.Faults.Crashes {
		if int(e.Node) < 0 || int(e.Node) >= c.Width*c.Height {
			return fmt.Errorf("mesh: crash event %d targets node %d outside the %dx%d mesh (%d nodes)",
				i, e.Node, c.Width, c.Height, c.Width*c.Height)
		}
		if e.Duration < 1 {
			return fmt.Errorf("mesh: crash event %d (node %d at %d) has Duration %d; nodes must restart (Duration >= 1) — a node that stays down forever strands every thread blocked on its pages",
				i, e.Node, e.At, e.Duration)
		}
		for j, p := range c.Faults.Crashes[:i] {
			if p.Node == e.Node && e.At < p.At+p.Duration && p.At < e.At+e.Duration {
				return fmt.Errorf("mesh: crash events %d and %d overlap on node %d ([%d, %d) vs [%d, %d)); one outage per node at a time",
					j, i, e.Node, p.At, p.At+p.Duration, e.At, e.At+e.Duration)
			}
		}
	}
	return nil
}

// ShardCount returns the effective number of shards (>= 1).
func (c Config) ShardCount() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// ShardOf returns the shard owning a node: equal contiguous row-major
// bands, the single source of truth for event ownership.
func (c Config) ShardOf(id NodeID) int {
	k := c.ShardCount()
	if k == 1 {
		return 0
	}
	return int(id) / (c.Width * c.Height / k)
}

// LookaheadWindow returns the conservative lookahead the shard runner
// may use: the minimum latency of any delivery a round defers. Any two
// distinct nodes are at least one hop apart, so Base + PerHop bounds
// every cross-shard delivery; bounded link buffers defer 0-hop sends
// and NACKs too, so with LinkBufFlits the bound is Base.
func (c Config) LookaheadWindow() sim.Cycles {
	if c.Faults.LinkBufFlits > 0 {
		return Base
	}
	return Base + PerHop
}

// DefaultConfig returns the paper's mesh: a width x height grid with
// no contention.
func DefaultConfig(width, height int) Config {
	return Config{Width: width, Height: height}
}

// WordWrite is one committed word modification carried by an update
// message and applied identically at every copy (general coherence).
type WordWrite struct {
	Off uint32
	Val memory.Word
}

// Msg is the shared wire message. The mesh interprets none of the
// payload fields — Kind and the rest are protocol-defined (see
// internal/coherence) — it only routes the message to Dst's Port.
// Fields are used per kind; unused fields are zero.
type Msg struct {
	// Kind is the protocol message type.
	Kind uint8
	// Op is a protocol operation code (coherence.Op for RMW requests).
	Op uint8
	// Complete marks a reply that also completes the operation.
	Complete bool
	// Origin is the requesting node, for replies and acks.
	Origin NodeID
	// Src is the hop sender, stamped by Send on every message. Unlike
	// Origin (the protocol-level requester, preserved across forwards)
	// Src identifies the node that injected this hop; the reliability
	// sublayer keys its per-pair sequence spaces on it.
	Src NodeID
	// Dst is the destination node; set by Send (or by a sender that
	// pre-stages the message before scheduling its entry into the
	// network).
	Dst NodeID
	// Seq is the reliability sublayer's per-(Src, Dst) sequence number
	// (0 when the transport is off; see internal/coherence).
	Seq uint64
	// Nacked marks a message bounced back to its sender by a full link
	// buffer instead of being delivered (back-pressure). The receiver
	// of a NACK owns the message and must recycle or re-send it.
	Nacked bool
	// Cause is the structured-trace causal ID of the operation this
	// message belongs to (stats.Event.Cause): a write request, every
	// update it fans out and the final ack all carry the ID stamped at
	// issue, so the whole span is reconstructable from the event stream.
	// Zero when tracing is off. CloneMsgAt copies it; FreeMsgAt clears it.
	Cause uint64
	// ID is an origin-local request identifier (or delayed-op slot).
	ID uint64
	// Pid is a pending-writes entry for RMWs (0 = none).
	Pid uint64
	// Page is the physical frame addressed at the destination.
	Page memory.PPage
	// Off is the word offset within the page.
	Off uint32
	// Val is a data word or RMW operand.
	Val memory.Word
	// Writes is an update payload; its capacity is retained when the
	// message is recycled.
	Writes []WordWrite
	// Data is a page-copy payload; capacity retained across recycling.
	Data []memory.Word
	// Done is a simulation-side completion hook (page copy).
	Done func()
	// pooled guards the free-list: true while the message sits on it,
	// so a double FreeMsg fails loudly instead of corrupting the pool.
	pooled bool
}

// Port receives messages delivered to a node.
type Port interface {
	Deliver(m *Msg)
}

// PortFunc adapts a plain function to the Port interface, for tests
// and simple consumers.
type PortFunc func(*Msg)

// Deliver implements Port.
func (f PortFunc) Deliver(m *Msg) { f(m) }

// Stats aggregates network activity: the contention model's queueing
// and what the unreliable network refused or lost (all zero with the
// fault model off).
type Stats struct {
	QueueWait sim.Cycles // total cycles spent queued behind busy links

	Dropped      uint64 // messages lost to fault injection
	Nacked       uint64 // messages refused by a full link buffer
	CrashDropped uint64 // messages discarded at (or injected by) a crashed node
}

// msgPool is one shard's message free-list. Each shard recycles
// messages through its own pool so allocation never crosses shard
// goroutines; a message freed on a different shard than it was
// allocated on simply migrates pools (it is fully cleared either way).
// sends recycles the shard's deferred-send records the same way.
type msgPool struct {
	free  []*Msg
	live  int
	sends []*pendingSend
}

// downWindow is one scheduled outage: the node is down for [from, to).
type downWindow struct {
	from, to sim.Cycles
}

// pendingSend is one cross-shard or contended send, handed to the
// sending engine's Defer as its own sink: resolved at once outside a
// round, at the round's barrier inside one. Every PRNG and
// tie-break-key draw already happened at Send time, in serial draw
// order, and hops is the path length Send computed; what remains is
// the walk over the shared per-link queues, replayed in serial
// dispatch order so linkFree evolves through exactly the serial
// sequence of reservations, and the injection. A bounded send (with
// LinkBufFlits) draws only its keys at Send time: admission reads the
// link queues, so the barrier runs the rest of Send too, and each
// source's PRNG is drawn in serial order.
type pendingSend struct {
	m        *Mesh
	sendT    sim.Cycles
	src, dst NodeID
	hops     int
	flits    int
	bounded  bool // admission and inject still to run (LinkBufFlits)
	ms       *Msg
	msLane   int32 // pre-drawn delivery (or NACK) key for ms
	msSeq    uint64
	dup      *Msg // non-nil: fault injector duplicated the message
	dupLane  int32
	dupSeq   uint64
	extra    sim.Cycles // fault-injected delay on the original
}

// Mesh is the interconnection network. It is not safe for concurrent
// use; like every simulated component it runs under the engine's
// single logical thread — or, sharded, under each shard engine's
// logical thread, touching only that shard's slice of the state.
type Mesh struct {
	cfg   Config
	ports []Port
	// engines holds one engine per shard (length ShardCount; engines[0]
	// is the engine passed to New). shardOf maps each node to its owner.
	engines []*sim.Engine
	shardOf []int32
	// xy holds every node's (x, y), computed once in New so that no
	// coordinate lookup on the send path divides.
	xy []point
	// linkSlot[from*4+dir] is the dense id (0..links-1) of the directed
	// link leaving from in direction dir, or -1 where the mesh edge has
	// no such link: the id EvNetHop, linkBusy, LinkLabels and
	// LinkBacklog number links by.
	linkSlot []int32
	links    int
	// linkFree[dir*nodes+from] is the cycle the directed link leaving
	// from in direction dir frees, so a path's X leg walks consecutive
	// entries and its Y leg strides by Width; entries for missing edge
	// links stay 0, never read. Used only when Contention is on and
	// written only by Defer'd pendingSends: sharded runs touch it at
	// barriers, never mid-round.
	linkFree []sim.Cycles
	// pools holds one message free-list per shard.
	pools []msgPool
	// frands drives the fault model, one PRNG per source node (keyed by
	// the sender, so fault draws stay on the sender's shard and the
	// sequence each node sees is identical for any shard count). Nil
	// when drop/dup/delay are all 0.
	frands []*rand.Rand
	// downWin holds each node's scheduled outage windows (sorted by
	// start), built once from the crash script. Nil with no script, so
	// the delivery path pays a single nil check.
	downWin [][]downWindow
	// shStats accumulates network statistics per shard (all writes
	// happen on the sending shard); Stats() sums the blocks.
	shStats []Stats
	// obs, when non-nil, holds the structured-event observers: one
	// child of the master observer per shard (stats.Observer.ShardChild),
	// which queues mid-round events on its engine's Defer log. Every
	// emission goes through the acting node's shard entry. linkBusy mirrors the layout — [shard][link]
	// occupancy cycles, summed by LinkBusyTotals — so mid-round hop
	// accounting never crosses shard workers. Both are inert (single
	// nil check) when tracing is off.
	obs      []*stats.Observer
	linkBusy [][]sim.Cycles
}

// New creates a mesh whose nodes are partitioned over one engine per
// shard (see Config.ShardOf): eng runs shard 0, and New builds the
// other ShardCount()-1 engines itself (Engines lists them all).
// Cross-shard sends ride the sending engine's Defer (see Send). Ports
// are registered per node with Attach before any traffic is sent.
func New(eng *sim.Engine, cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := cfg.Width * cfg.Height
	k := cfg.ShardCount()
	engines := []*sim.Engine{eng}
	for len(engines) < k {
		engines = append(engines, sim.NewEngine())
	}
	m := &Mesh{
		cfg:      cfg,
		engines:  engines,
		shardOf:  make([]int32, n),
		xy:       make([]point, n),
		ports:    make([]Port, n),
		pools:    make([]msgPool, k),
		shStats:  make([]Stats, k),
		linkSlot: make([]int32, n*4),
	}
	for id := 0; id < n; id++ {
		m.shardOf[id] = int32(cfg.ShardOf(NodeID(id)))
		m.xy[id] = point{id % cfg.Width, id / cfg.Width}
	}
	if cfg.Faults.lossy() {
		m.frands = make([]*rand.Rand, n)
		for id := 0; id < n; id++ {
			m.frands[id] = rand.New(rand.NewSource(cfg.Faults.Seed + int64(id)))
		}
	}
	if len(cfg.Faults.Crashes) > 0 {
		m.downWin = make([][]downWindow, n)
		for _, e := range cfg.Faults.Crashes {
			m.downWin[e.Node] = append(m.downWin[e.Node], downWindow{e.At, e.At + e.Duration})
		}
		for id := range m.downWin {
			sort.Slice(m.downWin[id], func(a, b int) bool {
				return m.downWin[id][a].from < m.downWin[id][b].from
			})
		}
	}
	// Assign each existing directed link a dense slot; edge nodes get
	// exactly their real out-degree, so linkFree holds one entry per
	// physical link: 2*((W-1)*H + W*(H-1)).
	next := int32(0)
	for id := 0; id < n; id++ {
		for dir := 0; dir < 4; dir++ {
			m.linkSlot[id*4+dir] = -1
			if _, ok := m.neighbor(NodeID(id), dir); ok {
				m.linkSlot[id*4+dir] = next
				next++
			}
		}
	}
	m.links = int(next)
	m.linkFree = make([]sim.Cycles, 4*n)
	return m
}

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Engines returns the per-shard engines, shard 0 first.
func (m *Mesh) Engines() []*sim.Engine { return m.engines }

// Stats returns the accumulated network statistics, summed over
// shards. Call it only with the simulation quiescent (between runs or
// at barriers); mid-round reads would race with shard workers.
func (m *Mesh) Stats() Stats {
	t := m.shStats[0]
	for _, s := range m.shStats[1:] {
		t.QueueWait += s.QueueWait
		t.Dropped += s.Dropped
		t.Nacked += s.Nacked
		t.CrashDropped += s.CrashDropped
	}
	return t
}

// ShardOf returns the shard that owns a node's events.
func (m *Mesh) ShardOf(id NodeID) int { return int(m.shardOf[id]) }

// EngineFor returns the engine owning a node's events.
func (m *Mesh) EngineFor(id NodeID) *sim.Engine { return m.engines[m.shardOf[id]] }

// SetObservers attaches one structured-event observer per shard
// (tracing is off until then, and the send path performs a single nil
// check and nothing else). core.NewMachine wires one ShardChild of the
// master observer per shard engine, at every shard count. Emissions go
// through the acting node's shard entry, so no histogram is ever
// touched by two shard workers, and a child in a round hands its
// events to the barrier rather than to the shared ring.
func (m *Mesh) SetObservers(obs []*stats.Observer) {
	if len(obs) != len(m.engines) {
		panic(fmt.Sprintf("mesh: SetObservers with %d observers for %d shards", len(obs), len(m.engines)))
	}
	m.obs = obs
	if m.linkBusy == nil {
		m.linkBusy = make([][]sim.Cycles, len(m.engines))
		for i := range m.linkBusy {
			m.linkBusy[i] = make([]sim.Cycles, m.links)
		}
	}
}

// obsFor returns the observer serving a shard (nil when tracing is
// off).
func (m *Mesh) obsFor(shard int32) *stats.Observer {
	if m.obs == nil {
		return nil
	}
	return m.obs[shard]
}

// LinkLabels names every physical directed link in dense-slot order
// ("src->dst"), for trace exporters that draw one track per link.
func (m *Mesh) LinkLabels() []string {
	labels := make([]string, m.links)
	for id := 0; id < len(m.ports); id++ {
		for dir := 0; dir < 4; dir++ {
			if to, ok := m.neighbor(NodeID(id), dir); ok {
				labels[m.linkSlot[id*4+dir]] = fmt.Sprintf("%d->%d", id, to)
			}
		}
	}
	return labels
}

// LinkBusyTotals returns each directed link's accumulated occupancy in
// cycles, summed over shards (observer attached only; nil otherwise).
// The sampler differs successive snapshots into per-interval
// utilization. Call with the simulation quiescent — serial, between
// runs, or at a lookahead barrier.
func (m *Mesh) LinkBusyTotals() []sim.Cycles {
	if m.linkBusy == nil {
		return nil
	}
	out := make([]sim.Cycles, m.links)
	for _, shard := range m.linkBusy {
		for i, v := range shard {
			out[i] += v
		}
	}
	return out
}

// LinkBacklog returns each directed link's queued traffic at the
// current cycle, in cycles of occupancy still ahead of a new arrival.
// Call it with the simulation quiescent, where every clock agrees.
func (m *Mesh) LinkBacklog() []sim.Cycles {
	out := make([]sim.Cycles, m.links)
	now := m.engines[0].Now()
	n := len(m.ports)
	for from := 0; from < n; from++ {
		for dir := 0; dir < 4; dir++ {
			if li := m.linkSlot[from*4+dir]; li >= 0 && m.linkFree[dir*n+from] > now {
				out[li] = m.linkFree[dir*n+from] - now
			}
		}
	}
	return out
}

// DownAt reports whether the crash script has node id down at time t.
// The schedule is static, so any component may consult it at any time;
// the core run loop uses it to pause processors and the transport's
// crash detector uses it as the confirmation oracle (standing in for
// an out-of-band management-network probe) before triggering failover.
func (m *Mesh) DownAt(id NodeID, t sim.Cycles) bool {
	if m.downWin == nil {
		return false
	}
	for _, w := range m.downWin[id] {
		if w.from > t {
			return false
		}
		if t < w.to {
			return true
		}
	}
	return false
}

// Attach registers the message port for node id.
func (m *Mesh) Attach(id NodeID, p Port) {
	if int(id) < 0 || int(id) >= len(m.ports) {
		panic(fmt.Sprintf("mesh: Attach of out-of-range node %d (mesh has %d nodes)", id, len(m.ports)))
	}
	if p == nil {
		panic(fmt.Sprintf("mesh: Attach of nil port on node %d", id))
	}
	m.ports[id] = p
}

// AllocMsgAt returns a cleared message from the free-list of the shard
// owning the acting node (or a new one when that list is empty),
// retaining the capacity of its payload slices. Senders fill it and
// pass it to Send; the final consumer returns it with FreeMsgAt.
func (m *Mesh) AllocMsgAt(at NodeID) *Msg {
	p := &m.pools[m.shardOf[at]]
	p.live++
	if n := len(p.free); n > 0 {
		ms := p.free[n-1]
		p.free = p.free[:n-1]
		ms.pooled = false
		return ms
	}
	return &Msg{}
}

// AllocMsg is AllocMsgAt for serial meshes and machine-level callers
// (tests, setup paths): it draws from shard 0's pool.
func (m *Mesh) AllocMsg() *Msg { return m.AllocMsgAt(0) }

// FreeMsgAt recycles a message onto the free-list of the shard owning
// the acting node. The caller must not retain the message or its
// slices afterwards. Freeing a message that is already pooled panics:
// a double-free would hand the same message to two owners and silently
// corrupt the protocol.
func (m *Mesh) FreeMsgAt(at NodeID, ms *Msg) {
	if ms.pooled {
		panic("mesh: double free of pooled Msg")
	}
	w, d := ms.Writes[:0], ms.Data[:0]
	*ms = Msg{} // zeroed in place; a non-zero literal is block-copied from the stack
	ms.Writes, ms.Data, ms.pooled = w, d, true
	p := &m.pools[m.shardOf[at]]
	p.live--
	p.free = append(p.free, ms)
}

// FreeMsg is FreeMsgAt onto shard 0's pool, for serial meshes and
// machine-level callers.
func (m *Mesh) FreeMsg(ms *Msg) { m.FreeMsgAt(0, ms) }

// LiveMsgs returns the number of messages currently checked out of the
// free-lists (allocated and not yet freed), summed over shards. A
// drained simulation must return to zero; the pool-balance tests pin
// that for the fault paths.
func (m *Mesh) LiveMsgs() int {
	live := 0
	for i := range m.pools {
		live += m.pools[i].live
	}
	return live
}

// CloneMsgAt returns a pooled deep copy of src from the acting node's
// shard pool: all wire fields plus the payload slices. Used by the
// fault injector's duplicate path and the reliability sublayer's
// retransmit buffer.
func (m *Mesh) CloneMsgAt(at NodeID, src *Msg) *Msg {
	c := m.AllocMsgAt(at)
	w, d := c.Writes, c.Data
	*c = *src
	c.pooled = false
	c.Writes = append(w[:0], src.Writes...)
	c.Data = append(d[:0], src.Data...)
	return c
}

// point is a node's (x, y) position in the mesh.
type point struct{ x, y int }

// Coord returns the (x, y) position of a node.
func (m *Mesh) Coord(id NodeID) (x, y int) {
	p := m.xy[id]
	return p.x, p.y
}

// ID returns the node at (x, y).
func (m *Mesh) ID(x, y int) NodeID {
	return NodeID(y*m.cfg.Width + x)
}

// Hops returns the dimension-ordered path length between two nodes in
// link traversals (Manhattan distance).
func (m *Mesh) Hops(a, b NodeID) int {
	pa, pb := m.xy[a], m.xy[b]
	return abs(pa.x-pb.x) + abs(pa.y-pb.y)
}

// Latency returns the uncontended one-way latency for a message from
// src to dst. A message to self costs Base (it still crosses the
// processor/router interface in the real machine; local operations
// bypass the network entirely and should not call Latency).
func (m *Mesh) Latency(src, dst NodeID) sim.Cycles {
	return m.latency(m.Hops(src, dst))
}

// latency is the uncontended one-way latency of a path of hops links.
func (m *Mesh) latency(hops int) sim.Cycles {
	return Base + PerHop*sim.Cycles(hops)
}

// direction indices for links leaving a node.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// dirStep is the (x, y) move across a link in each direction.
var dirStep = [4][2]int{dirEast: {1, 0}, dirWest: {-1, 0}, dirNorth: {0, -1}, dirSouth: {0, 1}}

// neighbor returns the node one link from id in direction dir, or
// false where the mesh edge has no such link.
func (m *Mesh) neighbor(id NodeID, dir int) (NodeID, bool) {
	x, y := m.Coord(id)
	x, y = x+dirStep[dir][0], y+dirStep[dir][1]
	if x < 0 || y < 0 || x >= m.cfg.Width || y >= m.cfg.Height {
		return 0, false
	}
	return m.ID(x, y), true
}

// leg is one straight span of a dimension-ordered path: n directed
// links in direction dir, leaving the nodes from, from+step, … in turn.
type leg struct{ dir, step, n int }

// legs splits the path from src to dst into its X leg (east or west,
// step ±1) and then its Y leg (south or north, step ±Width). Walking
// them in order visits the links X-first routing reserves, each leg
// over one direction's run of linkFree and no per-hop branching on the
// direction.
func (m *Mesh) legs(src, dst NodeID) [2]leg {
	s, d := m.xy[src], m.xy[dst]
	x := leg{dirEast, 1, d.x - s.x}
	if x.n < 0 {
		x = leg{dirWest, -1, -x.n}
	}
	y := leg{dirSouth, m.cfg.Width, d.y - s.y}
	if y.n < 0 {
		y = leg{dirNorth, -m.cfg.Width, -y.n}
	}
	return [2]leg{x, y}
}

// Delivery event kinds (sim.EventSink dispatch).
const (
	// evDeliver: the message arrives at its destination port.
	evDeliver = iota
	// evNack: a message refused by a full link buffer bounces back to
	// its sender's port with Nacked set.
	evNack
)

// Send routes a message of size flits from src to dst and delivers it
// to the destination port after the modeled latency. sizeFlits must be
// at least 1 (header flit). Sending from or to a node outside the mesh,
// or to a node with no attached port, panics. Send allocates nothing:
// the message rides the engine's typed event path.
//
// In unreliable-network mode the message may instead be dropped,
// delivered twice, delayed, or — when a link buffer on its path is over
// LinkBufFlits — bounced back to src as a NACK without touching the
// network. A dropped message is recycled; a NACKed message is owned by
// the sender's port when the bounce arrives.
// An uncontended send within one shard is queued on its engine; any
// other, and with LinkBufFlits every send, is a pendingSend on the
// engine's Defer, its keys drawn here.
func (m *Mesh) Send(src, dst NodeID, sizeFlits int, ms *Msg) {
	if sizeFlits < 1 {
		sizeFlits = 1
	}
	if int(src) < 0 || int(src) >= len(m.ports) {
		panic(fmt.Sprintf("mesh: send from out-of-range node %d (mesh has %d nodes)", src, len(m.ports)))
	}
	if int(dst) < 0 || int(dst) >= len(m.ports) {
		panic(fmt.Sprintf("mesh: send to out-of-range node %d (mesh has %d nodes)", dst, len(m.ports)))
	}
	if m.ports[dst] == nil {
		panic(fmt.Sprintf("mesh: send to unattached node %d (no port registered with Attach)", dst))
	}
	ms.Src, ms.Dst = src, dst
	srcShard := m.shardOf[src]
	eng := m.engines[srcShard]
	// A crashed sender's injections die at its network interface. The
	// coherence manager and processor are halted while down, so this
	// fires only for stragglers (e.g. a retransmit timer racing the
	// crash instant).
	if m.downWin != nil && m.DownAt(src, eng.Now()) {
		m.shStats[srcShard].CrashDropped++
		m.FreeMsgAt(src, ms)
		return
	}
	hops := m.Hops(src, dst)
	if m.cfg.Faults.LinkBufFlits > 0 {
		m.deferSend(srcShard, src, dst, hops, sizeFlits, ms, nil, 0, true)
		return
	}
	dup, extra, ok := m.inject(eng.Now(), src, dst, sizeFlits, ms)
	if !ok {
		return
	}
	if !(m.cfg.Contention && hops > 0) && m.shardOf[dst] == srcShard {
		lat := m.latency(hops)
		if dup != nil {
			eng.ScheduleEvent(lat+1, m, evDeliver, dup)
		}
		eng.ScheduleEvent(lat+extra, m, evDeliver, ms)
		return
	}
	// Another shard's queue and the per-link queues are not this
	// shard's: defer.
	m.deferSend(srcShard, src, dst, hops, sizeFlits, ms, dup, extra, false)
}

// inject records a send entering the network at t and draws its
// faults from the source's PRNG: drop, then duplicate and extra
// delay. It reports false, with the message recycled, when
// the message was dropped.
func (m *Mesh) inject(t sim.Cycles, src, dst NodeID, sizeFlits int, ms *Msg) (dup *Msg, extra sim.Cycles, ok bool) {
	srcShard := m.shardOf[src]
	st := &m.shStats[srcShard]
	o := m.obsFor(srcShard)
	if o != nil {
		o.EmitAt(t, stats.EvNetInject, int(src), ms.Kind, ms.Cause, uint64(dst), uint64(sizeFlits))
	}
	frand := m.frandFor(src)
	// Loss is modeled at injection: a dropped message reserves no
	// links and is recycled immediately.
	if frand != nil && m.cfg.Faults.DropRate > 0 && frand.Float64() < m.cfg.Faults.DropRate {
		st.Dropped++
		if o != nil {
			o.EmitAt(t, stats.EvNetDrop, int(src), ms.Kind, ms.Cause, uint64(dst), 0)
		}
		m.FreeMsgAt(src, ms)
		return nil, 0, false
	}
	if !m.cfg.Contention && o != nil {
		// Uncontended, the walk only emits the hops.
		m.contendAt(t, src, dst, sizeFlits, ms.Cause)
	}
	// A duplicate arrives one cycle behind the original (it shares the
	// original's link reservations — an approximation); an injected
	// delay postpones the original only.
	if frand != nil {
		if r := m.cfg.Faults.DupRate; r > 0 && frand.Float64() < r {
			if o != nil {
				o.EmitAt(t, stats.EvNetDup, int(src), ms.Kind, ms.Cause, uint64(dst), 0)
			}
			dup = m.CloneMsgAt(src, ms)
		}
		if r := m.cfg.Faults.DelayRate; r > 0 && frand.Float64() < r {
			extra = 1 + sim.Cycles(frand.Int63n(int64(m.cfg.Faults.DelayMax)))
			if o != nil {
				o.EmitAt(t, stats.EvNetDelay, int(src), ms.Kind, ms.Cause, uint64(extra), 0)
			}
		}
	}
	return dup, extra, true
}

// deferSend hands a send made now to its engine's Defer as a pooled
// pendingSend, drawing its keys: the duplicate's first. A bounded send
// draws both whatever the barrier decides (a NACK uses the message's).
func (m *Mesh) deferSend(shard int32, src, dst NodeID, hops, sizeFlits int, ms, dup *Msg, extra sim.Cycles, bounded bool) {
	p, eng := &m.pools[shard], m.engines[shard]
	var ps *pendingSend
	if n := len(p.sends); n > 0 {
		ps, p.sends = p.sends[n-1], p.sends[:n-1]
	} else {
		ps = new(pendingSend)
	}
	*ps = pendingSend{} // zeroed in place, then set field by field
	ps.m, ps.sendT, ps.src, ps.dst, ps.hops, ps.flits = m, eng.Now(), src, dst, hops, sizeFlits
	ps.bounded, ps.ms, ps.dup, ps.extra = bounded, ms, dup, extra
	if dup != nil || bounded {
		ps.dupLane, ps.dupSeq = eng.DrawKey()
	}
	ps.msLane, ps.msSeq = eng.DrawKey()
	eng.Defer(ps, 0, nil)
}

// HandleEvent implements sim.EventSink for Defer. A bounded send first
// runs admission — refused, the message bounces back to its sender
// Base cycles after the send — then inject. With Contention on it
// walks the path against the per-link queues from the send time, then
// injects the deliveries under the keys drawn at Send and recycles the
// record. Every arrival lands at sendT + Base or later, past the
// round's horizon (Config.LookaheadWindow), so on any shard's queue.
func (ps *pendingSend) HandleEvent(int, any) {
	m := ps.m
	deliver := true
	if ps.bounded {
		if ps.hops > 0 && !m.admit(ps.sendT, ps.src, ps.dst) {
			srcShard := m.shardOf[ps.src]
			m.shStats[srcShard].Nacked++
			ps.ms.Nacked = true
			if o := m.obsFor(srcShard); o != nil {
				o.EmitAt(ps.sendT, stats.EvNetNack, int(ps.src), ps.ms.Kind, ps.ms.Cause, uint64(ps.dst), 0)
			}
			m.engines[srcShard].InjectEventAt(ps.sendT+Base, ps.msLane, ps.msSeq, m, evNack, ps.ms)
			deliver = false
		} else {
			ps.dup, ps.extra, deliver = m.inject(ps.sendT, ps.src, ps.dst, ps.flits, ps.ms)
		}
	}
	if deliver {
		lat := m.latency(ps.hops)
		if m.cfg.Contention {
			lat += m.contendAt(ps.sendT, ps.src, ps.dst, ps.flits, ps.ms.Cause)
		}
		dstEng := m.engines[m.shardOf[ps.dst]]
		if ps.dup != nil {
			dstEng.InjectEventAt(ps.sendT+lat+1, ps.dupLane, ps.dupSeq, m, evDeliver, ps.dup)
		}
		dstEng.InjectEventAt(ps.sendT+lat+ps.extra, ps.msLane, ps.msSeq, m, evDeliver, ps.ms)
	}
	p := &m.pools[m.shardOf[ps.src]]
	ps.ms, ps.dup = nil, nil
	p.sends = append(p.sends, ps)
}

// frandFor returns the sending node's fault PRNG (nil when the lossy
// fault model is off).
func (m *Mesh) frandFor(src NodeID) *rand.Rand {
	if m.frands == nil {
		return nil
	}
	return m.frands[src]
}

// HandleEvent implements sim.EventSink: a message scheduled by Send
// arrives at its destination port (evDeliver) or bounces back to its
// sender (evNack). The event was scheduled under the sending activity's
// lane; from here on everything the receiving node does is its own
// activity, so the lane switches to the receiver before the port runs.
func (m *Mesh) HandleEvent(kind int, data any) {
	ms := data.(*Msg)
	if kind == evNack {
		if m.ports[ms.Src] == nil {
			panic(fmt.Sprintf("mesh: NACK to unattached sender %d", ms.Src))
		}
		eng := m.engines[m.shardOf[ms.Src]]
		if m.downWin != nil && m.DownAt(ms.Src, eng.Now()) {
			m.shStats[m.shardOf[ms.Src]].CrashDropped++
			m.FreeMsgAt(ms.Src, ms)
			return
		}
		eng.SetLane(int32(ms.Src))
		m.ports[ms.Src].Deliver(ms)
		return
	}
	// A crashed destination discards arriving traffic on the floor: the
	// message is recycled here and the sender's reliability sublayer
	// (which never sees a transport ack for it) retransmits until the
	// node returns or the crash detector escalates to failover.
	eng := m.engines[m.shardOf[ms.Dst]]
	if m.downWin != nil && m.DownAt(ms.Dst, eng.Now()) {
		m.shStats[m.shardOf[ms.Dst]].CrashDropped++
		m.FreeMsgAt(ms.Dst, ms)
		return
	}
	if o := m.obsFor(m.shardOf[ms.Dst]); o != nil {
		o.Emit(stats.EvNetDeliver, int(ms.Dst), ms.Kind, ms.Cause, uint64(ms.Src), 0)
	}
	eng.SetLane(int32(ms.Dst))
	m.ports[ms.Dst].Deliver(ms)
}

// admit reports whether a message can enter the network without
// overflowing a link buffer: every directed link on its dimension-
// ordered path must have at most LinkBufFlits flits queued. Backlog is
// measured at injection time (an approximation: the far links will
// partially drain by the time the header reaches them), in cycles of
// occupancy — wormhole switching streams a long message through, so
// the bound applies to waiting traffic, not to the message's own size.
func (m *Mesh) admit(t sim.Cycles, src, dst NodeID) bool {
	bufCap := sim.Cycles(m.cfg.Faults.LinkBufFlits) * FlitCycles
	n := len(m.ports)
	from := int(src)
	for _, l := range m.legs(src, dst) {
		free := m.linkFree[l.dir*n : (l.dir+1)*n]
		for i := 0; i < l.n; i++ {
			if free[from] > t && free[from]-t > bufCap {
				return false
			}
			from += l.step
		}
	}
	return true
}

// contendAt walks the dimension-ordered path's two legs (see legs)
// from injection time t0, recording per-hop link events when an
// observer is attached, and — with the contention model on — reserves
// each directed link and returns the queueing delay incurred. This is a pipelined
// (wormhole-like) approximation: the header advances one hop per
// PerHop cycles once a link frees, and the body occupies each link for
// sizeFlits*FlitCycles. With contention off nothing queues: the walk
// only emits the hops, so trace exports cover every link either way.
// The wait is charged to the sending node's shard. A walk replayed at a
// barrier emits its hops then and there, at the position its send held
// in the serial schedule.
func (m *Mesh) contendAt(t0 sim.Cycles, src, dst NodeID, sizeFlits int, cause uint64) sim.Cycles {
	srcShard := m.shardOf[src]
	o := m.obsFor(srcShard)
	occupancy := sim.Cycles(sizeFlits) * FlitCycles
	var wait sim.Cycles
	t := t0
	n := len(m.ports)
	from := int(src)
	for _, l := range m.legs(src, dst) {
		free := m.linkFree[l.dir*n : (l.dir+1)*n]
		for i := 0; i < l.n; i++ {
			var hopWait sim.Cycles
			if m.cfg.Contention {
				if free[from] > t {
					hopWait = free[from] - t
					wait += hopWait
					t = free[from]
				}
				free[from] = t + occupancy
			}
			if o != nil {
				li := m.linkSlot[from*4+l.dir]
				m.linkBusy[srcShard][li] += occupancy
				if m.cfg.Contention {
					o.Metrics.HopQueue.Observe(uint64(hopWait))
				}
				o.EmitAt(t, stats.EvNetHop, from, uint8(l.dir), cause,
					uint64(li), uint64(occupancy))
			}
			t += PerHop
			from += l.step
		}
	}
	m.shStats[srcShard].QueueWait += wait
	return wait
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

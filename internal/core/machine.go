// Package core assembles a complete simulated PLUS machine: the mesh,
// one node per mesh position (processor + cache + local memory +
// coherence manager + page table), the kernel, and the run loop.
//
// This is the package behind the public plus API; see the repository
// root for the exported surface.
package core

import (
	"errors"
	"fmt"

	"plus/internal/cache"
	"plus/internal/coherence"
	"plus/internal/kernel"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/mmu"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// Config describes a machine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// MeshWidth and MeshHeight give the node grid. The 1990 hardware
	// targeted meshes of tens of nodes (e.g. 4x4).
	MeshWidth, MeshHeight int
	// Timing holds the cache depths; the cycle costs are constants of
	// the timing package.
	Timing timing.Timing
	// NetContention enables the link-contention model (off in the
	// paper's lightly loaded experiments).
	NetContention bool
	// Mode selects run-to-block (PLUS) or context switching.
	Mode proc.Mode
	// SwitchCost is the per-switch cost in SwitchOnSync mode
	// (Figure 3-1 sweeps 16, 40 and 140).
	SwitchCost sim.Cycles
	// CompetitiveThreshold enables competitive page replication after
	// that many remote references from one node to one page (0 = off).
	CompetitiveThreshold uint64
	// FenceOnSync makes every delayed-operation issue an implicit full
	// write fence first (the DASH-style alternative PLUS argues
	// against); for the ablation benches.
	FenceOnSync bool
	// InvalidateMode replaces the write-update protocol with a
	// word-granular write-invalidate protocol (the §2.2 alternative);
	// for the ablation benches. Real PLUS is update-only.
	InvalidateMode bool
	// Faults configures the unreliable-network mode: deterministic
	// message loss, duplication, delay and bounded back-pressured link
	// buffers (see mesh.FaultConfig). The zero value is the reliable
	// network of the 1990 hardware.
	Faults mesh.FaultConfig
	// Shards partitions the mesh into that many equal contiguous bands
	// of nodes, each simulated on its own event queue under
	// conservative lookahead: the goroutine calling Run runs band 0,
	// one worker goroutine each the others (see internal/sim.ShardSet
	// and mesh.Config.Shards). 0 or 1 runs serially. Sharded runs are
	// deterministic and byte-identical to serial ones — same elapsed
	// cycles, counters, memory images, and (with an observer attached)
	// the same event stream: cross-shard deliveries and work on shared
	// state — contended link walks, kernel copy-list splices
	// (competitive replication, runtime Replicate/DeleteCopy/Migrate)
	// and events pushed into the observer's ring — go through
	// sim.Engine.Defer and replay at lookahead barriers in one-engine
	// dispatch order, as do crash-script crashes, restarts and failover.
	// One engine runs the same rounds and barriers, so a splice
	// requested mid-run lands at the next barrier at every shard count.
	Shards int
	// CheckInvariants runs the coherence invariant checker periodically
	// during Run and once at the end: single master per page, intact
	// copy-list chains, and replica convergence at quiescence. The
	// periodic check rides the run loop's quiescent points (its
	// lookahead barriers) and schedules nothing, so checking never
	// changes the run it checks.
	CheckInvariants bool
	// InvariantPeriod is the cycle interval between runtime invariant
	// checks when CheckInvariants is set (0 means 10000).
	InvariantPeriod sim.Cycles
	// Observe attaches a structured-event observer (see internal/stats)
	// to the machine: NewMachine binds it to the engine clock, wires the
	// mesh and coherence emission points, and — if the observer was
	// configured with a sample interval — schedules the time-series
	// sampler. One observer serves exactly one machine; binding the same
	// observer twice panics. Nil (the default) keeps every hot path
	// allocation-free and the simulation byte-identical to an
	// unobserved run.
	Observe *stats.Observer
}

// DefaultConfig returns a paper-calibrated machine on a w x h mesh.
func DefaultConfig(w, h int) Config {
	return Config{
		MeshWidth:  w,
		MeshHeight: h,
		Timing:     timing.Default(),
		Mode:       proc.RunToBlock,
	}
}

// Machine is a complete simulated PLUS multiprocessor.
type Machine struct {
	cfg Config
	eng *sim.Engine
	// engines holds one engine per shard (engines[0] == eng); shardViews
	// holds each shard's private stats.Machine view.
	engines    []*sim.Engine
	shardViews []*stats.Machine
	net        *mesh.Mesh
	st         *stats.Machine
	mems       []*memory.Memory
	cms        []*coherence.CM
	tables     []*mmu.Table
	kern       *kernel.Kernel
	procs      []*proc.Proc

	threads []*proc.Thread
	nextTID int
	elapsed sim.Cycles
	// shardStats is the run loop's account of the last Run.
	shardStats sim.ShardStats

	// inv is the runtime invariant checker (nil unless
	// Config.CheckInvariants); invErr records the first violation.
	inv    *InvariantChecker
	invErr error

	// obs is the attached observer (nil when unobserved); sample is the
	// time-series sampler, fed by the run loop's quiescent points.
	obs    *stats.Observer
	sample func(at sim.Cycles)
}

// NewMachine builds and wires a machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == proc.SwitchOnSync && cfg.SwitchCost == 0 {
		return nil, errors.New("core: SwitchOnSync mode requires a SwitchCost")
	}
	mcfg := mesh.DefaultConfig(cfg.MeshWidth, cfg.MeshHeight)
	mcfg.Contention = cfg.NetContention
	mcfg.Faults = cfg.Faults
	mcfg.Shards = cfg.Shards
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	k := mcfg.ShardCount()
	if len(cfg.Faults.Crashes) > 0 {
		switch {
		case cfg.CompetitiveThreshold > 0:
			return nil, errors.New("core: crash injection cannot be combined with competitive replication (a policy-triggered background copy racing a failover epoch is unsupported)")
		case cfg.InvalidateMode:
			return nil, errors.New("core: crash injection requires the write-update protocol (failover resyncs chains by page copy); disable InvalidateMode")
		}
	}
	eng := sim.NewEngine()
	net := mesh.New(eng, mcfg)
	engines := net.Engines()
	n := net.Nodes()
	st := stats.New(n)
	m := &Machine{cfg: cfg, eng: eng, engines: engines, net: net, st: st}
	// Each shard's components write stats through a per-shard view:
	// node-disjoint per-node counters share the master's backing slice;
	// machine-wide scalars accumulate privately and fold in after Run.
	m.shardViews = make([]*stats.Machine, k)
	for s := range m.shardViews {
		m.shardViews[s] = st.ShardView()
	}
	cmSt := func(i int) *stats.Machine { return m.shardViews[net.ShardOf(mesh.NodeID(i))] }
	for i := 0; i < n; i++ {
		mem := memory.New()
		cm := coherence.New(mesh.NodeID(i), net.EngineFor(mesh.NodeID(i)), net, mem, cache.New(), cfg.Timing, cmSt(i))
		cm.SetInvalidateMode(cfg.InvalidateMode)
		m.mems = append(m.mems, mem)
		m.cms = append(m.cms, cm)
		m.tables = append(m.tables, mmu.New())
	}
	m.kern = kernel.New(eng, net, m.cms, m.mems, m.tables, st)
	m.kern.SetCompetitiveThreshold(cfg.CompetitiveThreshold)
	for i := 0; i < n; i++ {
		p := proc.New(mesh.NodeID(i), net, m.cms[i], m.kern,
			m.tables[i], cmSt(i), cfg.Mode, cfg.SwitchCost)
		p.SetFenceOnSync(cfg.FenceOnSync)
		m.procs = append(m.procs, p)
	}
	if len(cfg.Faults.Crashes) > 0 {
		// Crash & recovery wiring (see PROTOCOL.md "Crash & failover"):
		// transports hand suspected peers to the kernel, and the script's
		// instants are events on engine 0, keyed here at build time alike
		// for every shard count.
		for _, cm := range m.cms {
			cm.ArmCrashRecovery(m.kern)
		}
		cs := (*crashScript)(m)
		for _, ev := range cfg.Faults.Crashes {
			eng.ScheduleEventAt(ev.At, cs, evCrash, &ev)
			eng.ScheduleEventAt(ev.At+ev.Duration, cs, evRestart, &ev)
		}
	}
	if cfg.CheckInvariants {
		m.inv = &InvariantChecker{kern: m.kern, cms: m.cms, skipConvergence: cfg.InvalidateMode}
	}
	if cfg.Observe != nil {
		m.attachObserver(cfg.Observe)
	}
	return m, nil
}

// attachObserver binds o to this machine: clock + topology metadata,
// the stats/mesh emission hooks, and the optional time-series
// sampler. Observers record events and counters only — they never
// schedule engine events (the sampler rides the run loop's quiescent
// points rather than arming its own tick), so an observed run computes
// exactly the same result, elapsed time included, as an unobserved
// one.
//
// Each shard engine gets a child observer reading its clock
// (stats.ShardChild), at every shard count; the shard's components
// emit into the child. A child in a lookahead round hands its
// events to the engine's Defer log, whose replay at the barrier pushes
// them in the exact one-engine emission order.
func (m *Machine) attachObserver(o *stats.Observer) {
	o.Bind(m.eng.Now, stats.TraceMeta{
		Nodes:      m.net.Nodes(),
		MeshWidth:  m.cfg.MeshWidth,
		MeshHeight: m.cfg.MeshHeight,
		Links:      m.net.LinkLabels(),
	})
	m.obs = o
	m.st.AttachObserver(o)
	if period := o.SampleInterval(); period > 0 {
		m.sample = m.samplerFunc(o, period)
	}
	if o.DataAccess() {
		// Route every node's mapping installs (fault fills, kernel
		// remaps) into the access stream through the node's own
		// observer — its shard's child, so the events reach the ring in
		// one-engine order.
		for i, tb := range m.tables {
			node, p := i, m.procs[i]
			tb.OnInstall = func(vp memory.VPage, g memory.GPage) {
				if po := p.Observer(); po != nil {
					po.Emit(stats.EvAccMap, node, 0, 0,
						uint64(vp), uint64(uint32(g.Node))<<32|uint64(uint32(g.Page)))
				}
			}
		}
	}
	kids := make([]*stats.Observer, len(m.engines))
	for s, e := range m.engines {
		kids[s] = o.ShardChild(e)
		m.shardViews[s].AttachObserver(kids[s])
	}
	m.net.SetObservers(kids)
}

// samplerFunc builds the time-series sampler, driven from the run
// loop's quiescent points: the first one at or after each period
// boundary appends one stats.Sample holding the deltas since the
// previous sample — per-link busy time (as a utilization fraction of
// the actual span covered), the instantaneous link backlog, and the
// per-node busy/stall breakdown. Sampling at quiescent points instead
// of on a scheduled tick keeps the event queue untouched, so the
// schedule (and the run's elapsed time) is identical with or without
// sampling; the cost is that Sample.At lands on a barrier's last
// activity, not the exact period boundary, and idle gaps longer than
// one period yield a single sample covering the whole gap.
func (m *Machine) samplerFunc(o *stats.Observer, period sim.Cycles) func(at sim.Cycles) {
	n := m.net.Nodes()
	prevLink := make([]sim.Cycles, len(m.net.LinkLabels()))
	prevBusy := make([]sim.Cycles, n)
	prevRead := make([]sim.Cycles, n)
	prevWrite := make([]sim.Cycles, n)
	prevFence := make([]sim.Cycles, n)
	prevVerify := make([]sim.Cycles, n)
	var last sim.Cycles // time of the previous sample
	next := period
	return func(at sim.Cycles) {
		if at < next {
			return
		}
		s := stats.Sample{
			At:              at,
			Events:          o.EventCount(),
			LinkUtil:        make([]float64, len(prevLink)),
			LinkDepth:       m.net.LinkBacklog(),
			NodeBusy:        make([]sim.Cycles, n),
			NodeReadStall:   make([]sim.Cycles, n),
			NodeWriteStall:  make([]sim.Cycles, n),
			NodeFenceStall:  make([]sim.Cycles, n),
			NodeVerifyStall: make([]sim.Cycles, n),
		}
		span := at - last
		cur := m.net.LinkBusyTotals()
		for i := range cur {
			s.LinkUtil[i] = float64(cur[i]-prevLink[i]) / float64(span)
			prevLink[i] = cur[i]
		}
		for i := 0; i < n; i++ {
			nd := &m.st.Nodes[i]
			s.NodeBusy[i] = nd.BusyCycles - prevBusy[i]
			s.NodeReadStall[i] = nd.ReadStall - prevRead[i]
			s.NodeWriteStall[i] = nd.WriteStall - prevWrite[i]
			s.NodeFenceStall[i] = nd.FenceStall - prevFence[i]
			s.NodeVerifyStall[i] = nd.VerifyStall - prevVerify[i]
			prevBusy[i], prevRead[i] = nd.BusyCycles, nd.ReadStall
			prevWrite[i], prevFence[i] = nd.WriteStall, nd.FenceStall
			prevVerify[i] = nd.VerifyStall
		}
		o.AddSample(s)
		last = at
		for next <= at {
			next += period
		}
	}
}

// Nodes returns the number of nodes (processors) in the machine.
func (m *Machine) Nodes() int { return m.net.Nodes() }

// Kernel exposes the operating-system services (placement,
// replication, migration, coherence checking).
func (m *Machine) Kernel() *kernel.Kernel { return m.kern }

// Mesh exposes the interconnect (topology queries, network stats).
func (m *Machine) Mesh() *mesh.Mesh { return m.net }

// Stats returns the machine's instrumentation counters.
func (m *Machine) Stats() *stats.Machine { return m.st }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Invariants returns the runtime invariant checker, or nil when
// Config.CheckInvariants is off.
func (m *Machine) Invariants() *InvariantChecker { return m.inv }

// Now returns the current virtual time.
func (m *Machine) Now() sim.Cycles { return m.eng.Now() }

// Alloc allocates n consecutive virtual pages homed on node home and
// returns the base virtual address.
func (m *Machine) Alloc(home mesh.NodeID, n int) memory.VAddr {
	return m.kern.AllocPages(home, n).Base()
}

// AllocHomed allocates len(homes) consecutive virtual pages with page
// i homed on homes[i], returning the base virtual address. This is how
// workloads lay out block-distributed arrays (each processor owning
// the pages for its block).
func (m *Machine) AllocHomed(homes ...mesh.NodeID) memory.VAddr {
	if len(homes) == 0 {
		panic("core: AllocHomed with no pages")
	}
	base := m.kern.AllocPage(homes[0])
	for _, h := range homes[1:] {
		m.kern.AllocPage(h)
	}
	return base.Base()
}

// Replicate creates copies of the page containing va on the given
// nodes, instantaneously (pre-run placement). The copy-list is kept
// path-length-ordered by the kernel.
func (m *Machine) Replicate(va memory.VAddr, nodes ...mesh.NodeID) {
	for _, n := range nodes {
		m.kern.ReplicateNow(va.Page(), n)
	}
}

// ReplicateRange replicates npages pages starting at va's page onto
// the given nodes.
func (m *Machine) ReplicateRange(va memory.VAddr, npages int, nodes ...mesh.NodeID) {
	for i := 0; i < npages; i++ {
		m.Replicate(va+memory.VAddr(i*memory.PageWords), nodes...)
	}
}

// Prefault installs node's translation for npages pages starting at
// va's page, outside simulated time — warm page tables for workloads
// that measure steady-state latency rather than cold-start faulting
// (a page-table fill costs timing.PageFault, 2000 cycles, which would
// swamp an open-loop run's per-op latencies). The same nearest-copy
// choice the lazy fill would make is installed, so only the 2000-cycle
// charge differs from faulting lazily. The node's page table is grown
// once, up front, to the size installing npages new pages reaches
// (mmu.Table.Reserve), so a bulk prefault allocates the slots the table
// keeps and no intermediate tables; prefaulting a range again may leave
// the table one doubling larger than lazy fills would.
func (m *Machine) Prefault(node mesh.NodeID, va memory.VAddr, npages int) {
	tbl := m.tables[node]
	tbl.Reserve(npages)
	for i := 0; i < npages; i++ {
		vp := va.Page() + memory.VPage(i)
		if _, ok := tbl.Lookup(vp); ok {
			continue
		}
		g, err := m.kern.Resolve(node, vp)
		if err != nil {
			panic(fmt.Sprintf("core: prefault: %v", err))
		}
		tbl.Install(vp, g)
	}
}

// Poke initializes the word at va on every copy, outside simulated
// time.
func (m *Machine) Poke(va memory.VAddr, v memory.Word) { m.kern.Poke(va, v) }

// Peek reads the master copy of va outside simulated time.
func (m *Machine) Peek(va memory.VAddr) memory.Word { return m.kern.Peek(va) }

// Spawn creates a thread on node running body.
func (m *Machine) Spawn(node mesh.NodeID, body func(*proc.Thread)) *proc.Thread {
	return m.SpawnNamed(node, fmt.Sprintf("t%d@n%d", m.nextTID, node), body)
}

// SpawnNamed is Spawn with a diagnostic thread name.
func (m *Machine) SpawnNamed(node mesh.NodeID, name string, body func(*proc.Thread)) *proc.Thread {
	id := m.nextTID
	m.nextTID++
	t := m.procs[node].Spawn(id, name, body)
	m.threads = append(m.threads, t)
	return t
}

// Threads returns all spawned threads.
func (m *Machine) Threads() []*proc.Thread { return m.threads }

// ActiveProcs returns the number of processors with at least one
// thread (the denominator of utilization).
func (m *Machine) ActiveProcs() int {
	n := 0
	for _, p := range m.procs {
		if len(p.Threads()) > 0 {
			n++
		}
	}
	return n
}

// Run executes the machine until all threads complete and the network
// drains, returning the elapsed virtual time. It fails if threads
// remain parked with no pending events (deadlock: a Sleep with no
// Wake, a lock never released).
func (m *Machine) Run() (sim.Cycles, error) {
	m.runShards()
	var stuck []string
	for _, t := range m.threads {
		if !t.Done() {
			stuck = append(stuck, t.Name())
		}
	}
	if len(stuck) > 0 {
		return m.elapsed, fmt.Errorf("core: deadlock — %d thread(s) never finished: %v", len(stuck), stuck)
	}
	// Write combining must never strand a write: every flush trigger
	// (fence, verify, RMW, reads, park, thread exit) has fired by now,
	// so a non-empty combine buffer is a protocol bug — the write was
	// issued but will never reach any copy.
	for i, cm := range m.cms {
		if n := cm.BufferedWrites(); n != 0 {
			return m.elapsed, fmt.Errorf("core: %d write(s) stranded in node %d's combine buffer at end of run", n, i)
		}
	}
	if m.invErr != nil {
		return m.elapsed, fmt.Errorf("core: invariant violated during run: %w", m.invErr)
	}
	if m.inv != nil {
		if err := m.inv.Check(); err != nil {
			return m.elapsed, fmt.Errorf("core: invariant violated after run: %w", err)
		}
	}
	// In invalidate mode replicas legitimately hold stale words (marked
	// invalid), so byte-identical copies are not expected.
	if !m.cfg.InvalidateMode {
		if err := m.kern.CheckCoherent(); err != nil {
			return m.elapsed, fmt.Errorf("core: coherence violated after quiescence: %w", err)
		}
	}
	return m.elapsed, nil
}

// runShards drives the engines through sim.ShardSet's lookahead rounds
// until the machine drains, then folds the shard stats views into the
// master block. Elapsed time is the latest actual activity on any
// engine: RunUntil drags each shard's clock to the round horizon, but
// LastActivityAt records only real work, so the figure is the same for
// every shard count.
func (m *Machine) runShards() {
	ss := &sim.ShardSet{
		Engines: m.engines,
		Window:  m.net.Config().LookaheadWindow(),
	}
	started := ss.Now()
	ss.Quiescent = m.quiescentFunc(started)
	ss.Run()
	for _, v := range m.shardViews {
		m.st.FoldShard(v)
	}
	m.shardStats = ss.Stats
	m.elapsed = 0
	if last := ss.LastActivityAt(); last > started {
		m.elapsed = last - started
	}
	if m.obs != nil {
		m.obs.FoldRun(m.st, m.elapsed)
		for va := range memory.VAddr(m.kern.PageCount() * memory.PageWords) {
			m.obs.Fold(uint64(m.kern.Peek(va)))
		}
	}
}

// quiescentFunc returns the run loop's quiescent-point hook: the
// time-series sampler, then the periodic invariant check at the first
// quiescent point at or after each InvariantPeriod boundary (the first
// violation is recorded and checking stops). Nil when neither is on,
// so an unobserved, unchecked run pays nothing at its barriers.
func (m *Machine) quiescentFunc(started sim.Cycles) func(at sim.Cycles) {
	if m.sample == nil && m.inv == nil {
		return nil
	}
	period := m.cfg.InvariantPeriod
	if period == 0 {
		period = 10000
	}
	next := started + period
	return func(at sim.Cycles) {
		if m.sample != nil {
			m.sample(at)
		}
		if m.inv == nil || m.invErr != nil || at < next {
			return
		}
		if err := m.inv.Check(); err != nil {
			m.invErr = fmt.Errorf("%w (at cycle %d)", err, at)
			return
		}
		for next <= at {
			next += period
		}
	}
}

// Elapsed returns the virtual time consumed by the last Run.
func (m *Machine) Elapsed() sim.Cycles { return m.elapsed }

// ShardStats returns how the last Run's work split into lookahead
// rounds and shard engines, and the host time each engine's goroutine
// spent waiting at barriers (sim.ShardStats).
func (m *Machine) ShardStats() sim.ShardStats { return m.shardStats }

// Utilization returns the ratio of useful processor time to elapsed
// time over the active processors of the last Run (Figure 2-1's
// metric).
func (m *Machine) Utilization() float64 {
	return m.st.Utilization(m.ActiveProcs(), m.elapsed)
}

// Crash-script event kinds (crashScript).
const evCrash, evRestart = 0, 1

// crashScript is the sink of the crash script's events. Taking a node
// down or back rewrites state on every shard, so an instant's work runs
// at its round's barrier, at most Window-1 cycles later; the mesh cuts
// the node's traffic at the instant itself (mesh.DownAt).
type crashScript Machine

func (cs *crashScript) HandleEvent(kind int, data any) {
	m := (*Machine)(cs)
	if m.eng.InRound() {
		m.eng.Defer(cs, kind, data)
		return
	}
	ev := data.(*mesh.CrashEvent)
	if kind == evCrash {
		// The processor halts at its next memory reference, the CM
		// loses its volatile transport and combining state, and the
		// kernel records the scripted instant for the recovery-time
		// metric. Peers' ack timeouts detect the outage later.
		m.st.Crashes++
		m.procs[ev.Node].Pause()
		m.cms[ev.Node].Crash()
		m.kern.MarkDown(ev.Node, ev.At)
		return
	}
	// The kernel fails the node over if nobody detected the outage,
	// wipes its volatile CM/MMU state and rejoins its pages as ordinary
	// copies; the processor resumes its halted threads.
	m.st.Restarts++
	m.kern.RestartNode(ev.Node)
	m.procs[ev.Node].Resume()
}

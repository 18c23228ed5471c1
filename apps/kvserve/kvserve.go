// Package kvserve is a multi-tenant record-serving workload — the
// "heavy traffic from millions of users" scenario: per-user profile
// records packed N-per-page over DSM pages, one frontend thread per
// node fielding an open-loop stream of requests whose keys follow a
// bounded Zipf popularity law. Unlike the paper's scientific kernels
// it measures *tail* latency: every op's scheduled-arrival→completion
// time lands in a log2 histogram, reported as p50/p95/p99 for reads
// and writes separately, and hot-key skew finally stresses the
// copy-list write fan-out — all frontends' writes to a hot record
// converge on one master whose update chain grows with replication.
//
// Three static placements bound the policy space: "master-local"
// homes each tenant's pages on one node (perfect tenant affinity,
// worst hot-tenant convergence), "striped" round-robins pages across
// nodes (spreads masters, no read locality), "replicated-hot"
// is master-local plus pre-replicated copies of the hottest pages
// (reads of hot records go local or near-local; writes pay a longer
// update chain — the PLUS replication trade-off of §2.5, measurable
// here as read-p99 down vs write-p99 up).
package kvserve

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/placement"
)

// Placement names the static layout policies.
const (
	MasterLocal   = "master-local"
	Striped       = "striped"
	ReplicatedHot = "replicated-hot"
)

// recordWords is the record size in words: a small profile record,
// 256 records per 4KB page.
const recordWords = 4

// perOpWork is the computation charged per request (request parse +
// hash).
const perOpWork sim.Cycles = 20

// Config parameterizes a run. There is one tenant per node: tenant t
// owns keys [t*RecordsPerTenant, (t+1)*RecordsPerTenant).
type Config struct {
	MeshW, MeshH int
	// RecordsPerTenant is the per-tenant key count (default 512). The
	// tenant record block must tile whole pages: RecordsPerTenant must
	// be a multiple of the 256 records a page holds.
	RecordsPerTenant int
	// OpsPerNode is the number of requests each frontend serves
	// (default 256).
	OpsPerNode int
	// ReadPct is the read percentage of the op mix (default 90 — the
	// read-mostly serving regime).
	ReadPct int
	// Skew is the Zipf exponent of key popularity: 0 = uniform,
	// 0.9 ≈ web-object skew, 1.2 = heavily hot-keyed.
	Skew float64
	// ArrivalMean is the mean inter-arrival gap per frontend in cycles
	// (default 400). Open loop: the schedule is fixed up front and a
	// slow system falls behind, inflating the measured tail.
	ArrivalMean float64
	// Placement picks the layout: master-local (default), striped, or
	// replicated-hot.
	Placement string
	// HotPages is how many of the hottest record pages replicated-hot
	// pre-replicates (default 2). Keys are Zipf-ranked in address
	// order, so the hottest pages are exactly the first global pages.
	HotPages int
	// HotCopies is the replica count per hot page including nothing of
	// the master (default 4, PLUS's uncontrolled-replication guard).
	HotCopies int
	// Seed drives every frontend's arrival schedule, key choice and op
	// mix (per-thread rngs derived from it; default 1).
	Seed int64
	// UnsyncCounters makes the end-of-run per-tenant op-count
	// aggregation use an unsynchronized read-modify-write instead of
	// fetch-and-add — a deliberate data race for the detector corpus.
	// Counter totals are then unreliable; Validate must be off.
	UnsyncCounters bool
	// Validate checks the per-tenant op counters against the
	// frontends' local tallies after the run.
	Validate bool
	// Machine, when non-nil, overrides the machine configuration (mesh
	// geometry is still taken from MeshW/MeshH); used by the sweep,
	// chaos and race runners to attach observers, shards and faults.
	Machine *core.Config
}

func (c Config) withDefaults() Config {
	if c.MeshW == 0 {
		c.MeshW = 4
	}
	if c.MeshH == 0 {
		c.MeshH = 4
	}
	if c.RecordsPerTenant == 0 {
		c.RecordsPerTenant = 512
	}
	if c.OpsPerNode == 0 {
		c.OpsPerNode = 256
	}
	if c.ReadPct == 0 {
		c.ReadPct = 90
	}
	if c.ArrivalMean == 0 {
		c.ArrivalMean = 400
	}
	if c.Placement == "" {
		c.Placement = MasterLocal
	}
	if c.HotPages == 0 {
		c.HotPages = 2
	}
	if c.HotCopies == 0 {
		c.HotCopies = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result reports a run.
type Result struct {
	Elapsed     sim.Cycles
	Utilization float64
	Ops         uint64
	Reads       uint64
	Writes      uint64
	// Late counts ops whose frontend was already past the scheduled
	// arrival when it got to them — the backlog signal of an open-loop
	// driver under overload.
	Late uint64
	// ReadLat and WriteLat hold scheduled-arrival→completion latency
	// in cycles.
	ReadLat  stats.Hist
	WriteLat stats.Hist
	// Checksum is an FNV-1a digest of every record word and tenant
	// counter after quiescence — the byte-identity pin for the shard
	// equivalence tests.
	Checksum uint64
	Messages uint64
	Updates  uint64
	// Crash carries the failover counters (zero without a crash
	// script).
	Crash stats.CrashBlock
	// Report is the rendered per-node counter table.
	Report string
}

// Run executes the workload. Safe for concurrent use by the sweep
// runner: every call builds a private machine and seeds private rngs.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	mcfg := core.DefaultConfig(cfg.MeshW, cfg.MeshH)
	if cfg.Machine != nil {
		mcfg = *cfg.Machine
		mcfg.MeshWidth, mcfg.MeshHeight = cfg.MeshW, cfg.MeshH
	}
	m, err := core.NewMachine(mcfg)
	if err != nil {
		return Result{}, err
	}
	nodes := m.Nodes()
	tenants := nodes
	if cfg.RecordsPerTenant*recordWords%memory.PageWords != 0 {
		return Result{}, fmt.Errorf("kvserve: tenant block %d words does not tile %d-word pages",
			cfg.RecordsPerTenant*recordWords, memory.PageWords)
	}
	if cfg.UnsyncCounters && cfg.Validate {
		return Result{}, fmt.Errorf("kvserve: UnsyncCounters makes counters unreliable; disable Validate")
	}
	pagesPerTenant := cfg.RecordsPerTenant * recordWords / memory.PageWords
	totalPages := tenants * pagesPerTenant
	totalKeys := int64(tenants) * int64(cfg.RecordsPerTenant)
	recordsPerPage := memory.PageWords / recordWords

	// One contiguous block of record pages; key k lives in global page
	// k/recordsPerPage. Keys are Zipf-ranked in address order (rank 1 =
	// key 0), so the hottest records are the first pages of tenant 0 —
	// the hot set is known a priori, no profiling run needed.
	homes := make([]mesh.NodeID, totalPages)
	for p := range homes {
		switch cfg.Placement {
		case MasterLocal, ReplicatedHot:
			homes[p] = mesh.NodeID((p / pagesPerTenant) % nodes)
		case Striped:
			homes[p] = mesh.NodeID(p % nodes)
		default:
			return Result{}, fmt.Errorf("kvserve: unknown placement %q", cfg.Placement)
		}
	}
	records := m.AllocHomed(homes...)
	// Per-tenant op counters on their own page, homed away from the
	// hot node (node 0 masters the hot records under master-local).
	counters := m.Alloc(mesh.NodeID(nodes-1), 1)
	if tenants > memory.PageWords {
		return Result{}, fmt.Errorf("kvserve: %d tenants exceed one counter page", tenants)
	}

	if cfg.Placement == ReplicatedHot {
		hot := cfg.HotPages
		if hot > totalPages {
			hot = totalPages
		}
		pages := make([]memory.VPage, hot)
		for i := range pages {
			pages[i] = records.Page() + memory.VPage(i)
		}
		if err := placement.ReplicateHot(m, pages, cfg.HotCopies); err != nil {
			return Result{}, err
		}
	}

	// Warm every frontend's page table: a serving system measures
	// steady-state latency, and a lazy 2000-cycle fill on first touch
	// of each of the hundreds of record pages would swamp the per-op
	// histograms of a short run.
	for n := 0; n < nodes; n++ {
		m.Prefault(mesh.NodeID(n), records, totalPages)
		m.Prefault(mesh.NodeID(n), counters, 1)
	}

	recordVA := func(key int64, field int) memory.VAddr {
		page := key / int64(recordsPerPage)
		slot := key % int64(recordsPerPage)
		return records + memory.VAddr(page*int64(memory.PageWords)+slot*recordWords+int64(field))
	}

	// Per-frontend state, observed into privately and folded after the
	// run in node order: a shared Hist would race across shard worker
	// goroutines and fold order must not depend on scheduling.
	readLat := make([]stats.Hist, nodes)
	writeLat := make([]stats.Hist, nodes)
	late := make([]uint64, nodes)
	reads := make([]uint64, nodes)
	writes := make([]uint64, nodes)
	tallies := make([][]uint64, nodes) // per-frontend per-tenant op counts

	for n := 0; n < nodes; n++ {
		n := n
		tallies[n] = make([]uint64, tenants)
		m.SpawnNamed(mesh.NodeID(n), fmt.Sprintf("kv%d", n), func(t *proc.Thread) {
			// One rng per frontend: arrivals, keys and the op mix all
			// draw from it in body order, so the request stream depends
			// only on the seed — never on simulated interleaving.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*0x9e3779b9))
			sched := proc.NewArrivals(rng, cfg.ArrivalMean)
			zipf := NewZipf(rng, cfg.Skew, totalKeys)
			for op := 0; op < cfg.OpsPerNode; op++ {
				at := sched.Next()
				if t.IdleUntil(at) > 0 {
					late[n]++
				}
				key := zipf.Sample() - 1
				field := rng.Intn(recordWords)
				isRead := rng.Intn(100) < cfg.ReadPct
				t.Compute(perOpWork)
				va := recordVA(key, field)
				if isRead {
					// Served from the nearest copy; race-free against the
					// RMW writes below (the writes order all readers).
					t.Read(va)
					readLat[n].Observe(uint64(t.Now() - at))
					reads[n]++
				} else {
					// Writes go through the delayed-operation path: the
					// master applies them atomically in arrival order and
					// the ack returns only after the update reaches every
					// copy, so a write's latency includes the full
					// copy-list fan-out — the cost replication adds.
					t.XchngSync(va, memory.Word(uint32(n)<<24|uint32(op)))
					writeLat[n].Observe(uint64(t.Now() - at))
					writes[n]++
				}
				tallies[n][key/int64(cfg.RecordsPerTenant)]++
			}
			// Publish this frontend's tallies into the shared per-tenant
			// counters. Fetch-and-add executes at the master, so totals
			// are exact however the frontends interleave; the unsync
			// variant is the textbook lost-update race, for the detector.
			for tn, c := range tallies[n] {
				if c == 0 {
					continue
				}
				va := counters + memory.VAddr(tn)
				if cfg.UnsyncCounters {
					v := t.Read(va)
					t.Compute(2)
					t.Write(va, v+memory.Word(c))
				} else {
					t.FaddSync(va, int32(c))
				}
			}
		})
	}

	elapsed, err := m.Run()
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Elapsed:     elapsed,
		Utilization: m.Utilization(),
		Messages:    m.Stats().Messages(),
		Updates:     m.Stats().Totals().Updates,
		Crash:       m.Stats().Crash(),
		Report:      m.Stats().Report(elapsed),
	}
	for n := 0; n < nodes; n++ {
		res.ReadLat.Add(&readLat[n])
		res.WriteLat.Add(&writeLat[n])
		res.Late += late[n]
		res.Reads += reads[n]
		res.Writes += writes[n]
	}
	res.Ops = res.Reads + res.Writes
	// Fold the latency classes into the observer's metrics so -hist
	// output and trace consumers see them beside the protocol
	// histograms.
	if o := mcfg.Observe; o != nil {
		o.Metrics.Class("kv-read").Add(&res.ReadLat)
		o.Metrics.Class("kv-write").Add(&res.WriteLat)
	}
	h := fnv.New64a()
	var word [4]byte
	digest := func(va memory.VAddr) {
		v := uint32(m.Peek(va))
		word[0], word[1], word[2], word[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(word[:])
	}
	for w := 0; w < totalPages*memory.PageWords; w++ {
		digest(records + memory.VAddr(w))
	}
	for tn := 0; tn < tenants; tn++ {
		digest(counters + memory.VAddr(tn))
	}
	res.Checksum = h.Sum64()

	if cfg.Validate {
		want := make([]uint64, tenants)
		for n := range tallies {
			for tn, c := range tallies[n] {
				want[tn] += c
			}
		}
		for tn := 0; tn < tenants; tn++ {
			got := uint64(m.Peek(counters + memory.VAddr(tn)))
			if got != want[tn] {
				return res, fmt.Errorf("kvserve: tenant %d counter = %d, frontends issued %d", tn, got, want[tn])
			}
		}
	}
	return res, nil
}

package main

import (
	"fmt"
	"regexp"
	"strconv"

	"plus/apps/beam"
	"plus/apps/kvserve"
	"plus/apps/sssp"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/stats"
)

// params selects one instance of a workload and how it is run.
type params struct {
	// seed is the run's -seed, handed to the app's Seed field.
	seed int64
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// obs, when non-nil, is attached through core.Config.Observe.
	obs *stats.Observer
	// ref runs the serial twin of a sharded workload instead.
	ref bool
}

// outcome is the simulated result of one rep: deterministic for a
// given seed, so it doubles as the correctness fingerprint.
type outcome struct {
	SimCycles uint64 `json:"sim_cycles"`
	Messages  uint64 `json:"messages"`
	// Digest is a workload-specific summary of the simulated output:
	// relaxations for SSSP, the record-store checksum for kvserve,
	// vertices processed for beam search.
	Digest uint64     `json:"digest"`
	KV     *kvOutcome `json:"kv,omitempty"`
}

// kvOutcome carries kvserve's open-loop latency record.
type kvOutcome struct {
	Ops   uint64 `json:"ops"`
	Late  uint64 `json:"late"`
	Read  hist   `json:"read"`
	Write hist   `json:"write"`
}

// hist mirrors stats.Hist with its buckets serialized, so reps can be
// compared bucket for bucket.
type hist struct {
	Count   uint64     `json:"count"`
	Sum     uint64     `json:"sum"`
	Max     uint64     `json:"max"`
	Buckets [65]uint64 `json:"buckets"`
}

// workload is one fixed input family of the benchmark; the seed picks
// the instance. Each runs through its app's public Run with Validate on,
// so every rep checks its own output against a sequential reference.
type workload struct {
	name string
	why  string
	// nominal is the host seconds one full-size rep takes on a 2-CPU
	// Xeon, child start-up and set-up replay included. It turns the
	// run's time budget into a fixed rep count.
	nominal float64
	// twin names the serial workload whose simulation this sharded one
	// must reproduce exactly; a rep with params.ref set runs it.
	twin string
	run  func(p params) (outcome, error)
	// setup replays the workload's public set-up calls (input
	// generation and machine construction) for the setup_s metric.
	setup func(p params) error
}

var workloads = []*workload{
	{
		name:    "sssp-16x16",
		why:     "Figure 2-1's replicated SSSP grown to 16x16, the paper's headline program: event heap and coroutine handoff; contention, kernel ops and sharding bypassed",
		nominal: 2.3,
		run:     runSSSP(1),
		setup:   setupSSSP(1),
	},
	{
		name:    "sssp-16x16-k2",
		why:     "the same simulation on 2 shard engines: only ShardSet rounds, barriers and mail differ, so a sharding change moves this and leaves sssp-16x16 still",
		nominal: 2.3,
		twin:    "sssp-16x16",
		run:     runSSSP(2),
		setup:   setupSSSP(2),
	},
	{
		name:    "kvserve-hotkey",
		why:     "open-loop Zipf s=1.2 record store just below its knee: mesh contention, uncached remote reads, RMW writes, IdleUntil, and 131k prefault installs in set-up",
		nominal: 2.2,
		run:     runKV,
		setup:   setupKV,
	},
	{
		name:    "beam-switch",
		why:     "Figure 3-1's beam search, context-switch style: locks and fetch-and-add via delayed ops, verify polls, SwitchOnSync switches; fixed lattice, seed unused",
		nominal: 3.3,
		run:     runBeam,
		setup:   setupBeam,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func ssspConfig(p params, shards int) sssp.Config {
	c := sssp.Config{MeshW: 16, MeshH: 16, Vertices: 4096, Degree: 4, MaxWeight: 16,
		Copies: 4, Seed: p.seed, Validate: true}
	if p.tiny {
		c.MeshW, c.MeshH, c.Vertices = 4, 4, 256
	}
	mc := core.DefaultConfig(c.MeshW, c.MeshH)
	mc.Shards = shards
	mc.Observe = p.obs
	c.Machine = &mc
	return c
}

func runSSSP(shards int) func(params) (outcome, error) {
	return func(p params) (outcome, error) {
		k := shards
		if p.ref {
			k = 1
		}
		res, err := sssp.Run(ssspConfig(p, k))
		return outcome{SimCycles: uint64(res.Elapsed), Messages: res.Messages, Digest: res.Relaxations}, err
	}
}

func setupSSSP(shards int) func(params) error {
	return func(p params) error {
		c := ssspConfig(p, shards)
		_ = sssp.Generate(c.Vertices, c.Degree, c.MaxWeight, c.Seed)
		_, err := core.NewMachine(*c.Machine)
		return err
	}
}

// kvRecordPages is kvserve's default tenant block: 512 four-word
// records, two pages per tenant.
const kvRecordPages = 512 * 4 / memory.PageWords

func kvConfig(p params) kvserve.Config {
	c := kvserve.Config{MeshW: 16, MeshH: 16, OpsPerNode: 1024, ReadPct: 90, Skew: 1.2,
		ArrivalMean: 1000, Placement: kvserve.MasterLocal, Seed: p.seed, Validate: true}
	if p.tiny {
		c.MeshW, c.MeshH, c.OpsPerNode = 4, 4, 64
	}
	mc := core.DefaultConfig(c.MeshW, c.MeshH)
	mc.NetContention = true
	mc.Observe = p.obs
	c.Machine = &mc
	return c
}

func runKV(p params) (outcome, error) {
	res, err := kvserve.Run(kvConfig(p))
	return outcome{
		SimCycles: uint64(res.Elapsed),
		Messages:  res.Messages,
		Digest:    res.Checksum,
		KV: &kvOutcome{Ops: res.Ops, Late: res.Late,
			Read: hist(res.ReadLat), Write: hist(res.WriteLat)},
	}, err
}

// setupKV replays kvserve's master-local layout and the per-node
// prefault of every record page and the counter page.
func setupKV(p params) error {
	m, err := core.NewMachine(*kvConfig(p).Machine)
	if err != nil {
		return err
	}
	nodes := m.Nodes()
	homes := make([]mesh.NodeID, nodes*kvRecordPages)
	for i := range homes {
		homes[i] = mesh.NodeID(i / kvRecordPages % nodes)
	}
	records := m.AllocHomed(homes...)
	counters := m.Alloc(mesh.NodeID(nodes-1), 1)
	for n := 0; n < nodes; n++ {
		m.Prefault(mesh.NodeID(n), records, len(homes))
		m.Prefault(mesh.NodeID(n), counters, 1)
	}
	return nil
}

func beamConfig(p params) beam.Config {
	c := beam.Config{MeshW: 8, MeshH: 8, Layers: 64, States: 256, Style: beam.ContextSwitch,
		SwitchCost: 40, ThreadsPerProc: 2, Validate: true}
	if p.tiny {
		c.MeshW, c.MeshH, c.Layers, c.States = 4, 4, 8, 32
	}
	mc := core.DefaultConfig(c.MeshW, c.MeshH)
	mc.Observe = p.obs
	c.Machine = &mc
	return c
}

// reportMessages reads the message total from a rendered stats report:
// beam.Result carries no message count of its own.
var reportMessages = regexp.MustCompile(`(?m)^messages: (\d+) total`)

func runBeam(p params) (outcome, error) {
	res, err := beam.Run(beamConfig(p))
	if err != nil {
		return outcome{}, err
	}
	m := reportMessages.FindStringSubmatch(res.Report)
	if m == nil {
		return outcome{}, fmt.Errorf("beam: no message total in the stats report")
	}
	msgs, err := strconv.ParseUint(m[1], 10, 64)
	return outcome{SimCycles: uint64(res.Elapsed), Messages: msgs, Digest: res.Processed}, err
}

func setupBeam(p params) error {
	mc := *beamConfig(p).Machine
	mc.Mode, mc.SwitchCost = proc.SwitchOnSync, 40
	_, err := core.NewMachine(mc)
	return err
}

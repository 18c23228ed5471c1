// Race-detection corpus: the registered programs `plusbench -races`
// runs under the data-access event layer and feeds to the
// happens-before detector (internal/trace). Each program declares its
// expected verdict — the directed pair demonstrates a real race and
// its fence/RMW-synchronized repair, and the two applications pin that
// the detector stays quiet on correctly synchronized real workloads.
package experiments

import (
	"fmt"

	"plus/apps/kvserve"
	"plus/apps/sor"
	"plus/apps/sssp"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/stats"
	"plus/internal/trace"
	psync "plus/sync"
)

// RaceProgram is one entry of the race-detection corpus.
type RaceProgram struct {
	Name string
	// Racy is the expected verdict: true means the detector must flag
	// at least one race, false that it must stay silent.
	Racy bool
	// Run executes the program on a machine built from mcfg (which
	// carries the observer and any shard setting). The mesh is fixed
	// at raceMeshW x raceMeshH so every program accepts the shard
	// counts the equivalence leg sweeps.
	Run func(mcfg *core.Config) error
}

// The corpus mesh: 8 nodes, tileable into 2, 4 or 8 shards.
const (
	raceMeshW = 4
	raceMeshH = 2
)

// RacePrograms returns the corpus in name order (the order -races runs
// and reports them).
func RacePrograms() []RaceProgram {
	return []RaceProgram{
		{Name: "fenced-pair", Racy: false, Run: runFencedPair},
		{Name: "kvserve", Racy: false, Run: runKvserveRace},
		{Name: "kvserve-unsync", Racy: true, Run: runKvserveUnsyncRace},
		{Name: "queuelock", Racy: false, Run: runQueueLockRace},
		{Name: "racy-pair", Racy: true, Run: runRacyPair},
		{Name: "sor", Racy: false, Run: runSORRace},
		{Name: "sssp", Racy: false, Run: runSSSPRace},
	}
}

// raceObserve runs one corpus program with the data-access layer on
// and returns its observer. shards 0 or 1 runs serially.
func raceObserve(p RaceProgram, shards int) (*stats.Observer, error) {
	mcfg := core.DefaultConfig(raceMeshW, raceMeshH)
	if shards > 1 {
		mcfg.Shards = shards
	}
	o := stats.NewObserver(stats.ObserveConfig{Events: 1 << 20, DataAccess: true})
	mcfg.Observe = o
	if err := p.Run(&mcfg); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return o, nil
}

// RaceReportFor runs one corpus program and analyzes its stream. The
// stream — and therefore the report — is byte-identical for any shard
// count.
func RaceReportFor(p RaceProgram, shards int) (*trace.Report, error) {
	o, err := raceObserve(p, shards)
	if err != nil {
		return nil, err
	}
	return trace.Analyze(p.Name, o.All(), o.Overwritten()), nil
}

// RaceOutcome is one -races row: the report plus the pass/fail verdict
// against the program's declared expectation. Trace carries the run's
// full observation with the races attached as annotation marks, ready
// for the Perfetto exporter.
type RaceOutcome struct {
	Program string            `json:"program"`
	Expect  string            `json:"expect"` // "racy" or "clean"
	Pass    bool              `json:"pass"`
	Report  *trace.Report     `json:"report"`
	Trace   stats.ObservedRun `json:"-"`
}

// RunRaceCorpus runs every registered program serially and checks each
// verdict. ok is false when any program missed its expectation (a racy
// program undetected, or a clean one misflagged).
func RunRaceCorpus() (outcomes []RaceOutcome, ok bool, err error) {
	ok = true
	for _, p := range RacePrograms() {
		o, rerr := raceObserve(p, 0)
		if rerr != nil {
			return nil, false, rerr
		}
		rep := trace.Analyze(p.Name, o.All(), o.Overwritten())
		expect := "clean"
		if p.Racy {
			expect = "racy"
		}
		pass := (len(rep.Races) > 0) == p.Racy && rep.Dropped == 0
		if !pass {
			ok = false
		}
		outcomes = append(outcomes, RaceOutcome{
			Program: p.Name, Expect: expect, Pass: pass, Report: rep,
			Trace: stats.ObservedRun{Name: p.Name, Observer: o, Marks: rep.Marks()},
		})
	}
	return outcomes, ok, nil
}

// pairNodes places the directed pair's two threads at the mesh's
// opposite corners — always in different shards for any tiling.
const (
	pairWriterNode = mesh.NodeID(0)
	pairReaderNode = mesh.NodeID(raceMeshW*raceMeshH - 1)
)

// runRacyPair is the directed positive: the writer stores two words
// and the reader loads them with no synchronization whatsoever — the
// exact pattern §2.3's fence discipline exists to repair.
func runRacyPair(mcfg *core.Config) error {
	m, err := core.NewMachine(*mcfg)
	if err != nil {
		return err
	}
	data := m.Alloc(pairWriterNode, 1)
	m.SpawnNamed(pairWriterNode, "writer", func(t *proc.Thread) {
		t.Write(data, 7)
		t.Write(data+1, 9)
	})
	m.SpawnNamed(pairReaderNode, "reader", func(t *proc.Thread) {
		t.Compute(500) // overlap the writer without synchronizing
		t.Read(data)
		t.Read(data + 1)
	})
	_, err = m.Run()
	return err
}

// runFencedPair is the directed negative: the same communication
// pattern, correctly synchronized with the §3.1 release idiom — write,
// fence, then advertise through a delayed fetch-and-add whose
// execution at the master serializes against the reader's polling
// fadd. The reader's Verify of a fadd that observed the increment
// acquires everything the writer's fence published.
func runFencedPair(mcfg *core.Config) error {
	m, err := core.NewMachine(*mcfg)
	if err != nil {
		return err
	}
	data := m.Alloc(pairWriterNode, 1)
	flag := m.Alloc(pairWriterNode, 1)
	m.SpawnNamed(pairWriterNode, "writer", func(t *proc.Thread) {
		t.Write(data, 7)
		t.Write(data+1, 9)
		t.Fence()
		t.FaddSync(flag, 1)
	})
	m.SpawnNamed(pairReaderNode, "reader", func(t *proc.Thread) {
		for t.FaddSync(flag, 0) != 1 {
			t.Compute(100)
		}
		if v := t.Read(data); v != 7 {
			panic(fmt.Sprintf("fenced-pair: read %d, want 7", v))
		}
		if v := t.Read(data + 1); v != 9 {
			panic(fmt.Sprintf("fenced-pair: read %d, want 9", v))
		}
	})
	_, err = m.Run()
	return err
}

// runQueueLockRace runs the Table 3-2 queue lock across every node of
// the corpus mesh: each thread increments a shared counter with plain
// reads and writes inside the lock, and the fenced Unlock hands the
// lock to a sleeping waiter with a wake message, so contended handoffs
// cross nodes (and shards). The Wake→Sleep edge orders every critical
// section after the previous one, so the detector must report nothing.
func runQueueLockRace(mcfg *core.Config) error {
	const sections = 4
	m, err := core.NewMachine(*mcfg)
	if err != nil {
		return err
	}
	l := psync.NewQueueLock(m, 0)
	ctr := m.Alloc(pairReaderNode, 1)
	for node := 0; node < m.Nodes(); node++ {
		m.SpawnNamed(mesh.NodeID(node), fmt.Sprintf("locker%d", node), func(t *proc.Thread) {
			for i := 0; i < sections; i++ {
				l.Lock(t)
				t.Write(ctr, t.Read(ctr)+1)
				l.Unlock(t)
			}
		})
	}
	if _, err := m.Run(); err != nil {
		return err
	}
	if got, want := m.Peek(ctr), memory.Word(sections*m.Nodes()); got != want {
		return fmt.Errorf("queuelock: counter %d, want %d", got, want)
	}
	if m.Stats().MsgWake == 0 {
		return fmt.Errorf("queuelock: no waiter was ever woken across nodes")
	}
	return nil
}

// runSORRace runs the barrier-synchronized SOR kernel small enough for
// an untruncated stream: under its fence + sense-reversing-barrier
// discipline every cross-thread neighbour read is ordered, so the
// detector must report nothing.
func runSORRace(mcfg *core.Config) error {
	_, err := sor.Run(sor.Config{
		MeshW: raceMeshW, MeshH: raceMeshH, Procs: 4,
		N: 32, Iters: 2,
		ReplicateBoundaries: true,
		Validate:            true,
		Machine:             mcfg,
	})
	return err
}

// raceKvserveConfig is the corpus-sized serving workload: every
// record write is a delayed exchange executed at the master, so the
// record words are synchronization words and the frontends' plain
// reads of them are ordered — the detector must report nothing.
func raceKvserveConfig(mcfg *core.Config) kvserve.Config {
	return kvserve.Config{
		MeshW: raceMeshW, MeshH: raceMeshH,
		RecordsPerTenant: 256, // records on pages 0..7, counters on page 8
		OpsPerNode:       24,
		Skew:             0.9,
		Machine:          mcfg,
	}
}

// runKvserveRace is the clean serving workload (fetch-and-add counter
// aggregation).
func runKvserveRace(mcfg *core.Config) error {
	cfg := raceKvserveConfig(mcfg)
	cfg.Validate = true
	_, err := kvserve.Run(cfg)
	return err
}

// runKvserveUnsyncRace is the directed positive: identical traffic,
// but the end-of-run per-tenant counter aggregation is a plain
// read-modify-write — the textbook lost-update race, every counter
// word torn between frontends with no fence or RMW ordering them.
func runKvserveUnsyncRace(mcfg *core.Config) error {
	cfg := raceKvserveConfig(mcfg)
	cfg.UnsyncCounters = true
	_, err := kvserve.Run(cfg)
	return err
}

// runSSSPRace runs the paper's irregular queue-driven workload: all
// shared mutable state (distances, work flags, the active counter,
// hardware queues) is touched through delayed operations, so every
// word of it is synchronization and the data — the graph arrays — is
// read-only. The detector must report nothing.
func runSSSPRace(mcfg *core.Config) error {
	_, err := sssp.Run(sssp.Config{
		MeshW: raceMeshW, MeshH: raceMeshH, Procs: 8,
		Vertices: 96, Degree: 3, MaxWeight: 16, Seed: 7,
		Copies:   2,
		Validate: true,
		Machine:  mcfg,
	})
	return err
}

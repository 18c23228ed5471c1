package kvserve

import (
	"testing"

	"plus/internal/core"
	"plus/internal/mesh"
)

// small returns a quick-running configuration on a 4x2 mesh with
// counter validation on.
func small() Config {
	return Config{
		MeshW: 4, MeshH: 2,
		RecordsPerTenant: 256, // one page per tenant
		OpsPerNode:       64,
		Skew:             0.9,
		Validate:         true,
	}
}

func TestKvserveSmoke(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	wantOps := uint64(8 * 64)
	if res.Ops != wantOps || res.Reads+res.Writes != wantOps {
		t.Fatalf("ops = %d (reads %d + writes %d), want %d", res.Ops, res.Reads, res.Writes, wantOps)
	}
	if res.ReadLat.Count != res.Reads || res.WriteLat.Count != res.Writes {
		t.Fatalf("histogram counts (%d, %d) disagree with op counts (%d, %d)",
			res.ReadLat.Count, res.WriteLat.Count, res.Reads, res.Writes)
	}
	// ~90% read mix, with slack for the small sample.
	if res.Reads < wantOps*8/10 || res.Writes == 0 {
		t.Fatalf("mix reads=%d writes=%d is far from the 90%% default", res.Reads, res.Writes)
	}
	if res.ReadLat.Quantile(0.99) < res.ReadLat.Quantile(0.50) {
		t.Fatalf("read p99 %d below p50 %d", res.ReadLat.Quantile(0.99), res.ReadLat.Quantile(0.50))
	}
}

func TestKvservePlacements(t *testing.T) {
	for _, p := range []string{MasterLocal, Striped, ReplicatedHot} {
		cfg := small()
		cfg.Placement = p
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	cfg := small()
	cfg.Placement = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// TestKvserveDeterminism pins run-to-run byte identity for a fixed
// seed, and that changing the seed actually changes the traffic.
func TestKvserveDeterminism(t *testing.T) {
	a, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Checksum != b.Checksum || a.ReadLat != b.ReadLat || a.WriteLat != b.WriteLat {
		t.Fatalf("same seed diverged: elapsed %d vs %d, checksum %#x vs %#x",
			a.Elapsed, b.Elapsed, a.Checksum, b.Checksum)
	}
	cfg := small()
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Checksum == a.Checksum {
		t.Fatal("different seeds produced identical memory images")
	}
}

// TestKvserveShardEquivalence runs the open-loop workload serial and
// at 2, 4 and 8 shard engines: elapsed time, final memory image and
// both latency histograms must be byte-identical (the PR-6 guarantee
// extended to the arrival-schedule driver; kvserve uses no
// Sleep/Wake).
func TestKvserveShardEquivalence(t *testing.T) {
	run := func(shards int, placement string) Result {
		cfg := small()
		cfg.Placement = placement
		mcfg := core.DefaultConfig(cfg.MeshW, cfg.MeshH)
		mcfg.Shards = shards
		cfg.Machine = &mcfg
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d %s: %v", shards, placement, err)
		}
		return res
	}
	for _, placement := range []string{MasterLocal, ReplicatedHot} {
		serial := run(0, placement)
		for _, k := range []int{2, 4, 8} {
			got := run(k, placement)
			if got.Elapsed != serial.Elapsed {
				t.Errorf("%s shards=%d: elapsed %d, serial %d", placement, k, got.Elapsed, serial.Elapsed)
			}
			if got.Checksum != serial.Checksum {
				t.Errorf("%s shards=%d: checksum %#x, serial %#x", placement, k, got.Checksum, serial.Checksum)
			}
			if got.ReadLat != serial.ReadLat || got.WriteLat != serial.WriteLat {
				t.Errorf("%s shards=%d: latency histograms diverge from serial", placement, k)
			}
			if got.Late != serial.Late || got.Messages != serial.Messages {
				t.Errorf("%s shards=%d: late %d/%d, messages %d/%d diverge",
					placement, k, got.Late, serial.Late, got.Messages, serial.Messages)
			}
		}
	}
}

// TestKvserveFaultChaos runs the serving workload over a lossy mesh
// (drop + dup + delay) with the runtime invariant checker on: the
// reliability sublayer must repair every loss (counters still exact,
// coherence holds at quiescence) and actually do work (retransmits).
func TestKvserveFaultChaos(t *testing.T) {
	cfg := small()
	mcfg := core.DefaultConfig(cfg.MeshW, cfg.MeshH)
	mcfg.Faults = mesh.FaultConfig{
		Seed:      7,
		DropRate:  0.02,
		DupRate:   0.02,
		DelayRate: 0.05,
		DelayMax:  60,
	}
	mcfg.CheckInvariants = true
	mcfg.InvariantPeriod = 2000
	cfg.Machine = &mcfg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum == 0 || res.Ops != clean.Ops {
		t.Fatalf("lossy run lost ops: %d vs %d", res.Ops, clean.Ops)
	}
}

// TestKvserveMasterCrash crashes the hot node (node 0 masters the
// Zipf-hottest tenant under replicated-hot) mid-run: the failover
// epoch must promote its pages' masters, every fetch-and-add must
// survive reissue (counters exact), and the outage must be visible in
// the write tail versus a crash-free twin.
func TestKvserveMasterCrash(t *testing.T) {
	base := func() Config {
		cfg := small()
		cfg.Placement = ReplicatedHot
		// Cover every page node 0 masters (tenant 0's single record
		// page), so the crash strands no sole copies. The counters page
		// lives on the last node and is untouched by the outage.
		cfg.HotPages = 1
		cfg.HotCopies = 4
		cfg.ArrivalMean = 300
		cfg.OpsPerNode = 128
		return cfg
	}
	cfg := base()
	mcfg := core.DefaultConfig(cfg.MeshW, cfg.MeshH)
	mcfg.Faults = mesh.FaultConfig{
		Crashes: []mesh.CrashEvent{{Node: 0, At: 8000, Duration: 6000}},
	}
	mcfg.CheckInvariants = true
	mcfg.InvariantPeriod = 1000
	cfg.Machine = &mcfg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crash.Crashes != 1 || res.Crash.Restarts != 1 {
		t.Fatalf("crash script did not run: %+v", res.Crash)
	}
	if res.Crash.Failovers < 1 || res.Crash.MastersPromoted < 1 {
		t.Fatalf("no failover epoch: %+v", res.Crash)
	}
	calm, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteLat.Quantile(0.99) <= calm.WriteLat.Quantile(0.99) {
		t.Fatalf("recovery cost invisible in write tail: crash p99 %d <= calm p99 %d",
			res.WriteLat.Quantile(0.99), calm.WriteLat.Quantile(0.99))
	}
	if res.Elapsed <= calm.Elapsed {
		t.Fatalf("crash run elapsed %d not above calm %d", res.Elapsed, calm.Elapsed)
	}
}

package synth

import (
	"testing"

	"plus/internal/core"
)

func TestRunBasic(t *testing.T) {
	res, err := Run(Config{MeshW: 2, MeshH: 2, Procs: 4, OpsPerProc: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 || res.Throughput <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization = %f", res.Utilization)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := Config{MeshW: 2, MeshH: 2, Procs: 4, OpsPerProc: 100, Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Messages != b.Messages {
		t.Fatal("nondeterministic")
	}
}

func TestLocalityReducesTraffic(t *testing.T) {
	lo, err := Run(Config{MeshW: 2, MeshH: 2, Procs: 4, OpsPerProc: 300, LocalFrac: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(Config{MeshW: 2, MeshH: 2, Procs: 4, OpsPerProc: 300, LocalFrac: 95, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Messages >= lo.Messages {
		t.Fatalf("high locality sent more messages: %d >= %d", hi.Messages, lo.Messages)
	}
	if hi.Throughput <= lo.Throughput {
		t.Fatalf("high locality not faster: %f <= %f", hi.Throughput, lo.Throughput)
	}
}

func TestReplicationAddsUpdates(t *testing.T) {
	base := Config{MeshW: 2, MeshH: 2, Procs: 4, OpsPerProc: 300, Seed: 5}
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.Copies = 3
	r3, err := Run(repl)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Updates <= r1.Updates {
		t.Fatalf("updates: %d -> %d", r1.Updates, r3.Updates)
	}
}

func TestFenceOnSyncSlowsDown(t *testing.T) {
	base := Config{MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: 300, RMWFrac: 20, LocalFrac: 40, Seed: 7}
	free, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fenced := base
	mc := core.DefaultConfig(4, 2)
	mc.FenceOnSync = true
	fenced.Machine = &mc
	slow, err := Run(fenced)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= free.Elapsed {
		t.Fatalf("implicit fences did not cost anything: %d <= %d", slow.Elapsed, free.Elapsed)
	}
}

func TestContentionAddsQueueWait(t *testing.T) {
	base := Config{MeshW: 4, MeshH: 1, Procs: 4, OpsPerProc: 400, LocalFrac: 5, HotspotFrac: 80, Seed: 11}
	r, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if r.QueueWait != 0 {
		t.Fatal("queue wait without contention model")
	}
	c := base
	mc := core.DefaultConfig(4, 1)
	mc.NetContention = true
	c.Machine = &mc
	rc, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rc.QueueWait == 0 {
		t.Fatal("hotspot with contention produced no queue wait")
	}
}

// TestMachineFenceOnSyncIsHonored pins that the knob on the caller's
// Machine config reaches the run: the fenced run of
// TestFenceOnSyncSlowsDown takes exactly the cycles it took when synth
// carried its own FenceOnSync copy, which overwrote the Machine's.
func TestMachineFenceOnSyncIsHonored(t *testing.T) {
	mc := core.DefaultConfig(1, 1) // geometry comes from MeshW/MeshH
	mc.FenceOnSync = true
	r, err := Run(Config{MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: 300, RMWFrac: 20, LocalFrac: 40, Seed: 7, Machine: &mc})
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed != 49698 || r.Messages != 2450 || r.Totals.FenceStall != 296 {
		t.Fatalf("elapsed %d, messages %d, fence stall %d; want 49698, 2450, 296",
			r.Elapsed, r.Messages, r.Totals.FenceStall)
	}
}

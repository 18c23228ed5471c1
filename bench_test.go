package plus_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablations and simulator micro-benchmarks. Each experiment benchmark
// runs the same code as cmd/plusbench (quick problem sizes so the
// whole suite stays fast) and reports the simulated-cycle results as
// custom metrics; `go run ./cmd/plusbench` regenerates the full-size
// tables recorded in EXPERIMENTS.md.

import (
	"testing"

	"plus"
	"plus/apps/beam"
	"plus/apps/kvserve"
	"plus/apps/sor"
	"plus/apps/sssp"
	"plus/experiments"
)

// benchRows runs a registered experiment b.N times through the
// registry, as cmd/plusbench does, and returns the last run's rows.
func benchRows[T any](b *testing.B, name string, o experiments.Options) []T {
	b.Helper()
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	var rows []T
	for i := 0; i < b.N; i++ {
		res, err := e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Rows.([]T)
	}
	return rows
}

// BenchmarkTable2_1 regenerates Table 2-1 (effect of replication on
// messages, SSSP on 16 processors, copies 1..5).
func BenchmarkTable2_1(b *testing.B) {
	rows := benchRows[experiments.Table21Row](b, "table2-1", experiments.Options{Quick: true})
	b.ReportMetric(rows[0].ReadRatio, "readsLR@1copy")
	b.ReportMetric(rows[4].ReadRatio, "readsLR@5copies")
	b.ReportMetric(rows[4].UpdateRatio, "totalPerUpdate@5copies")
}

// BenchmarkFigure2_1 regenerates Figure 2-1 (SSSP efficiency and
// utilization vs processors, with and without replication).
func BenchmarkFigure2_1(b *testing.B) {
	pts := benchRows[experiments.Fig21Point](b, "figure2-1", experiments.Options{Quick: true})
	for _, p := range pts {
		if p.Procs == 16 {
			if p.Replicated {
				b.ReportMetric(p.Efficiency, "eff@16repl")
			} else {
				b.ReportMetric(p.Efficiency, "eff@16none")
			}
		}
	}
}

// BenchmarkTable3_1 regenerates Table 3-1 (delayed-operation execution
// cycles at the coherence manager).
func BenchmarkTable3_1(b *testing.B) {
	rows := benchRows[experiments.Table31Row](b, "table3-1", experiments.Options{})
	for _, r := range rows {
		if r.MeasuredExec != r.PaperCycles {
			b.Fatalf("%v: measured %d, paper %d", r.Op, r.MeasuredExec, r.PaperCycles)
		}
	}
	b.ReportMetric(float64(rows[0].MeasuredExec), "simpleOpCycles")
	b.ReportMetric(float64(rows[4].MeasuredExec), "queueOpCycles")
}

// BenchmarkFigure3_1 regenerates Figure 3-1 (beam-search efficiency by
// synchronization style).
func BenchmarkFigure3_1(b *testing.B) {
	pts := benchRows[experiments.Fig31Point](b, "figure3-1", experiments.Options{Quick: true})
	for _, p := range pts {
		if p.Procs == 8 {
			switch p.Label {
			case "delayed":
				b.ReportMetric(p.Efficiency, "eff@8delayed")
			case "blocking":
				b.ReportMetric(p.Efficiency, "eff@8blocking")
			case "cs-40":
				b.ReportMetric(p.Efficiency, "eff@8cs40")
			}
		}
	}
}

// BenchmarkSection3_1Costs regenerates the §3.1 cost anatomy (latency
// vs hop distance).
func BenchmarkSection3_1Costs(b *testing.B) {
	rows := benchRows[experiments.CostRow](b, "costs", experiments.Options{})
	b.ReportMetric(float64(rows[0].RoundTrip), "adjacentRT")
	b.ReportMetric(float64(rows[0].RemoteRead), "adjacentRead")
}

// BenchmarkAblationFence compares explicit fences (PLUS) against
// implicit fences at every synchronization (DASH-style).
func BenchmarkAblationFence(b *testing.B) {
	rows := benchRows[experiments.AblationRow](b, "ablation-fence", experiments.Options{Quick: true})
	b.ReportMetric(float64(rows[0].Elapsed), "explicitFenceCycles")
	b.ReportMetric(float64(rows[1].Elapsed), "fenceEverySyncCycles")
}

// BenchmarkAblationPendingWrites sweeps the pending-writes cache depth.
func BenchmarkAblationPendingWrites(b *testing.B) {
	rows := benchRows[experiments.AblationRow](b, "ablation-pending-writes", experiments.Options{Quick: true})
	b.ReportMetric(float64(rows[0].Elapsed), "depth1Cycles")
	b.ReportMetric(float64(rows[3].Elapsed), "depth8Cycles")
}

// BenchmarkAblationDelayedSlots sweeps the delayed-op cache depth.
func BenchmarkAblationDelayedSlots(b *testing.B) {
	benchRows[experiments.AblationRow](b, "ablation-delayed-slots", experiments.Options{Quick: true})
}

// BenchmarkAblationContention toggles the link-contention model.
func BenchmarkAblationContention(b *testing.B) {
	benchRows[experiments.AblationRow](b, "ablation-contention", experiments.Options{Quick: true})
}

// BenchmarkAblationCompetitive sweeps the competitive-replication
// threshold.
func BenchmarkAblationCompetitive(b *testing.B) {
	benchRows[experiments.AblationRow](b, "ablation-competitive", experiments.Options{Quick: true})
}

// --- Simulator micro-benchmarks (host performance, not paper data) -----

// BenchmarkSimRemoteRead measures host time per simulated remote read.
func BenchmarkSimRemoteRead(b *testing.B) {
	m, err := plus.New(plus.DefaultConfig(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	data := m.Alloc(1, 1)
	n := b.N
	m.Spawn(0, func(t *plus.Thread) {
		for i := 0; i < n; i++ {
			t.Read(data + plus.VAddr(i%1024))
		}
	})
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimReplicatedWrite measures host time per simulated write
// propagated down a 4-copy list.
func BenchmarkSimReplicatedWrite(b *testing.B) {
	m, err := plus.New(plus.DefaultConfig(4, 1))
	if err != nil {
		b.Fatal(err)
	}
	data := m.Alloc(0, 1)
	m.Replicate(data, 1, 2, 3)
	n := b.N
	m.Spawn(0, func(t *plus.Thread) {
		for i := 0; i < n; i++ {
			t.Write(data+plus.VAddr(i%1024), plus.Word(uint32(i)))
			if i%4 == 3 {
				t.Fence()
			}
		}
		t.Fence()
	})
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimFadd measures host time per simulated remote
// fetch-and-add round trip.
func BenchmarkSimFadd(b *testing.B) {
	m, err := plus.New(plus.DefaultConfig(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	ctr := m.Alloc(1, 1)
	n := b.N
	m.Spawn(0, func(t *plus.Thread) {
		for i := 0; i < n; i++ {
			t.FaddSync(ctr, 1)
		}
	})
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimSSSP measures whole-workload simulation speed.
func BenchmarkSimSSSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sssp.Run(sssp.Config{
			MeshW: 4, MeshH: 2, Procs: 8, Vertices: 256, Seed: 1, Copies: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSORScaling measures the regular-workload contrast: SOR
// speedup from 1 to 4 processors (near-linear, unlike the sync-heavy
// applications) — an extension experiment beyond the paper's tables.
func BenchmarkSORScaling(b *testing.B) {
	var t1, t4 uint64
	for i := 0; i < b.N; i++ {
		r1, err := sor.Run(sor.Config{MeshW: 2, MeshH: 2, Procs: 1, N: 64, Iters: 2, ReplicateBoundaries: true})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := sor.Run(sor.Config{MeshW: 2, MeshH: 2, Procs: 4, N: 64, Iters: 2, ReplicateBoundaries: true})
		if err != nil {
			b.Fatal(err)
		}
		t1, t4 = uint64(r1.Elapsed), uint64(r4.Elapsed)
	}
	b.ReportMetric(float64(t1)/float64(t4), "speedup@4procs")
}

// BenchmarkSimBeam measures whole-workload simulation speed.
func BenchmarkSimBeam(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := beam.Run(beam.Config{
			MeshW: 4, MeshH: 2, Procs: 8, Layers: 10, States: 32, Style: beam.Delayed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloads runs the benchmark harness's four workloads at
// full size and seed 42, one app run per iteration, reporting
// allocations; make allocs prints where they allocate. The configs are
// copied from bench/workloads.go (ssspConfig, kvConfig and beamConfig;
// bench/ is its own module), so a change to one belongs in both.
func BenchmarkWorkloads(b *testing.B) {
	const seed = 42
	machine := func(w, h, shards int, contention bool) *plus.Config {
		mc := plus.DefaultConfig(w, h)
		mc.Shards, mc.NetContention = shards, contention
		return &mc
	}
	runSSSP := func(shards int) func() error {
		return func() error {
			_, err := sssp.Run(sssp.Config{MeshW: 16, MeshH: 16, Vertices: 4096, Degree: 4,
				MaxWeight: 16, Copies: 4, Seed: seed, Validate: true, Machine: machine(16, 16, shards, false)})
			return err
		}
	}
	for _, w := range []struct {
		name string
		run  func() error
	}{
		{"sssp-16x16", runSSSP(1)},
		{"sssp-16x16-k2", runSSSP(2)},
		{"kvserve-hotkey", func() error {
			_, err := kvserve.Run(kvserve.Config{MeshW: 16, MeshH: 16, OpsPerNode: 1024, ReadPct: 90,
				Skew: 1.2, ArrivalMean: 1000, Placement: kvserve.MasterLocal, Seed: seed, Validate: true,
				Machine: machine(16, 16, 1, true)})
			return err
		}},
		{"beam-switch", func() error {
			_, err := beam.Run(beam.Config{MeshW: 8, MeshH: 8, Layers: 64, States: 256,
				Style: beam.ContextSwitch, SwitchCost: 40, ThreadsPerProc: 2, Validate: true,
				Machine: machine(8, 8, 1, false)})
			return err
		}},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
